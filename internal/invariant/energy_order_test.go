package invariant

import (
	"fmt"
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// TestServerEnergyViolationsDeterministic pins the fix for the map-order
// dependence simlint:determinism found in checkServerEnergy: the
// residency-fraction loop iterated a map, so the violation list (and the
// float accumulation into the closure sum) depended on Go's randomized
// map iteration order. The loop now walks states sorted. This test
// drives the energy-closure law over a server with many residency
// states, constructed in a different insertion order each round, and
// requires the violation output to be byte-identical every time.
func TestServerEnergyViolationsDeterministic(t *testing.T) {
	build := func(perm []int) *server.Server {
		eng := engine.New()
		srv, err := server.New(0, eng, server.DefaultConfig(power.FourCoreServer()))
		if err != nil {
			t.Fatal(err)
		}
		res := srv.Residency()
		// One closed interval per synthetic state, in permuted order; the
		// durations differ per state so fractions are distinguishable.
		at := simtime.FromSeconds(1)
		for _, s := range perm {
			res.SetState(at, fmt.Sprintf("state-%02d", s))
			at += simtime.FromSeconds(float64(s + 1))
		}
		res.SetState(at, "final")
		return srv
	}

	check := func(srv *server.Server) string {
		c := &Checker{}
		// An end time before the last transition makes the closed
		// intervals overshoot the [t0, end] window, so the fractions sum
		// far past 1 and the closure law must fire — deterministically.
		c.checkServerEnergy(srv, simtime.FromSeconds(3))
		out := ""
		for _, v := range c.Violations() {
			out += v.Law + ": " + v.Detail + "\n"
		}
		return out
	}

	perms := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 7, 0, 5, 1, 6, 2, 4},
	}
	want := check(build(perms[0]))
	if want == "" {
		t.Fatal("expected the energy-closure law to fire on the truncated window")
	}
	// Re-check repeatedly: Go randomizes map iteration per range
	// statement, so an order-dependent implementation diverges across
	// rounds with high probability.
	for round := 0; round < 32; round++ {
		for _, p := range perms {
			if got := check(build(p)); got != want {
				t.Fatalf("violation output depends on construction/iteration order:\nwant %q\ngot  %q", want, got)
			}
		}
	}
}
