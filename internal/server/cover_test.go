package server

import (
	"testing"

	"holdcsim/internal/modelcov"
)

// modelcov cannot import this package (we import it), so its residency
// state table is a duplicate of the State* labels above. Pin the two
// tables together: a new or renamed residency label must be mirrored in
// modelcov or its transitions silently vanish from the coverage map.
func TestModelcovKnowsEveryResidencyLabel(t *testing.T) {
	want := []string{StateActive, StateWakeUp, StateIdle, StatePkgC6,
		StateSysSleep, StateOff, StateDown}
	if len(stateLabels) != modelcov.NumSrvStates || len(want) != modelcov.NumSrvStates {
		t.Fatalf("server has %d residency labels, modelcov expects %d",
			len(stateLabels), modelcov.NumSrvStates)
	}
	// The server records transitions by state index, so its table must be
	// modelcov's, position by position, and hold every exported label.
	for i, l := range stateLabels {
		if got, want := modelcov.Name(modelcov.SrvTransition(i, i)), "srv/"+l+"->"+l; got != want {
			t.Errorf("state %d is %q here, modelcov names its self-transition %q", i, l, got)
		}
		if l != want[i] {
			t.Errorf("stateLabels[%d] = %q, want %q", i, l, want[i])
		}
	}
	if stateLabels[stDown] != StateDown || stateLabels[stActive] != StateActive {
		t.Error("state ids and labels are out of step")
	}
}
