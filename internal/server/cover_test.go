package server

import (
	"testing"

	"holdcsim/internal/modelcov"
	"holdcsim/internal/power"
)

// The server records its residency state by index into
// power.ServerStates, the table modelcov names transitions from: each
// state id must be its label's position there.
func TestModelcovKnowsEveryResidencyLabel(t *testing.T) {
	ids := map[int]string{stActive: power.StateActive, stWakeUp: power.StateWakeUp,
		stIdle: power.StateIdle, stPkgC6: power.StatePkgC6, stSysSleep: power.StateSysSleep,
		stDown: power.StateDown}
	if len(ids) != modelcov.NumSrvStates {
		t.Fatalf("server has %d state ids, modelcov expects %d", len(ids), modelcov.NumSrvStates)
	}
	for id, l := range ids {
		if power.ServerStates[id] != l {
			t.Errorf("state id %d is %q in the table, want %q", id, power.ServerStates[id], l)
		}
		if got, want := modelcov.Name(modelcov.SrvTransition(id, id)), "srv/"+l+"->"+l; got != want {
			t.Errorf("modelcov names state %d's self-transition %q, want %q", id, got, want)
		}
	}
}
