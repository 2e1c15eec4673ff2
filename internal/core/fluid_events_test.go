package core

import (
	"testing"

	"holdcsim/internal/network"
)

// TestFluidDispatchCountPinned pins how many events a small fluid run
// dispatches, for each way a DAG edge rides a flow: TransferFlow
// (comm flow) and TransferPackets under the fluid model (the dag-fluid
// workload's shape). A flow costs one start and one completion event
// whatever the re-rates between them, so re-rating must not move these
// counts, nor the job-done sequence TestJobDoneSequencePinned pins.
func TestFluidDispatchCountPinned(t *testing.T) {
	flow := recycleConfigs()["dag"]
	fluid := flow
	fluid.CommMode = CommPacket
	fluid.NetworkConfig.Model = network.ModelFluid
	for _, c := range []struct {
		name   string
		cfg    Config
		events uint64
	}{
		{"flow", flow, 75316},
		{"fluid", fluid, 75316},
	} {
		dc, err := Build(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dc.Run(); err != nil {
			t.Fatal(err)
		}
		if st := dc.Net.Stats(); st.FlowsCompleted == 0 || st.FlowsCompleted != st.FlowsStarted {
			t.Fatalf("%s: flows did not run to completion: %+v", c.name, st)
		}
		if got := dc.Eng.Dispatched; got != c.events {
			t.Errorf("%s: %d events dispatched, pinned %d", c.name, got, c.events)
		}
	}
}
