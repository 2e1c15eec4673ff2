package network

import (
	"math"
	"testing"
	"testing/quick"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// directedKey identifies one direction of one link in refWaterFill.
type directedKey struct {
	link int
	ab   bool
}

// refWaterFill is the map-based water-filling this package ran before
// the per-direction records moved onto the links, kept verbatim as the
// oracle for TestWaterFillMatchesReference: same algorithm, same
// iteration order, same floating-point operation order.
func (n *Network) refWaterFill() {
	if len(n.flows) == 0 {
		return
	}
	type resource struct {
		cap     float64 // bytes/sec remaining
		flows   []*Flow
		unfixed int
	}
	resources := make(map[directedKey]*resource)
	var order []directedKey // deterministic iteration
	for _, f := range n.flows {
		f.rate = -1 // unfixed marker
		for i, l := range f.links {
			k := directedKey{link: l.id, ab: f.dirAB[i]}
			r, ok := resources[k]
			if !ok {
				r = &resource{cap: l.bytesPerSec()}
				resources[k] = r
				order = append(order, k)
			}
			r.flows = append(r.flows, f)
			r.unfixed++
		}
	}
	unfixed := len(n.flows)
	for unfixed > 0 {
		// Find the bottleneck resource.
		bestShare := -1.0
		var bestKey directedKey
		for _, k := range order {
			r := resources[k]
			if r.unfixed == 0 {
				continue
			}
			share := r.cap / float64(r.unfixed)
			if bestShare < 0 || share < bestShare {
				bestShare = share
				bestKey = k
			}
		}
		if bestShare < 0 {
			break // no constrained resources left (cannot happen with links on every flow)
		}
		// Freeze every unfixed flow on the bottleneck.
		for _, f := range resources[bestKey].flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = bestShare
			unfixed--
			for i, l := range f.links {
				k := directedKey{link: l.id, ab: f.dirAB[i]}
				r := resources[k]
				r.cap -= bestShare
				if r.cap < 0 {
					r.cap = 0
				}
				r.unfixed--
			}
		}
	}
}

// TestWaterFillMatchesReference drives random flow sets on a fat-tree
// through arrivals, completions, an adaptive-link-rate step and a link
// kill, and after every event (so after every re-rate) demands that each
// active flow's rate is bit-identical to what the map-based reference
// assigns on the same state.
func TestWaterFillMatchesReference(t *testing.T) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for _, ecmp := range []bool{false, true} {
		for seed := uint64(1); seed <= 8; seed++ {
			eng := engine.New()
			cfg := DefaultConfig(power.DataCenter10G(8))
			cfg.ECMP = ecmp
			n, err := New(eng, g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			x := seed
			next := func(mod int) int {
				x = x*6364136223846793005 + 1442695040888963407
				return int((x >> 33) % uint64(mod))
			}
			checks, peak := 0, 0
			check := func() {
				if len(n.flows) > peak {
					peak = len(n.flows)
				}
				got := make([]float64, len(n.flows))
				for i, f := range n.flows {
					got[i] = f.rate
				}
				n.refWaterFill()
				for i, f := range n.flows {
					if math.Float64bits(got[i]) != math.Float64bits(f.rate) {
						t.Fatalf("ecmp=%v seed=%d t=%v: flow %d rate %v, reference %v (%d flows active)",
							ecmp, seed, eng.Now(), i, got[i], f.rate, len(n.flows))
					}
					f.rate = got[i]
					checks++
				}
			}
			// 60 arrivals spread over 2 ms, 0.1 - 4 MB each: at 10 Gb/s
			// they overlap heavily and complete throughout the window.
			for i := 0; i < 60; i++ {
				at := simtime.Time(next(2000)) * simtime.Microsecond
				src, dst := hosts[next(len(hosts))], hosts[next(len(hosts))]
				bytes := int64(100_000 + next(3_900_000))
				eng.Schedule(at, func() {
					if err := n.TransferFlow(src, dst, bytes, nil); err != nil {
						t.Error(err)
					}
				})
			}
			// An ALR decision at 0.7 ms: every other port of every switch
			// steps down to 1 Gb/s, and the flows are re-rated.
			stepped := false
			eng.Schedule(700*simtime.Microsecond, func() {
				for _, sw := range n.swList {
					for i, p := range sw.ports {
						if p.link != nil && i%2 == 0 {
							p.setRateIdx(0)
						}
					}
					sw.recompute()
				}
				before := make([]float64, len(n.flows))
				for i, f := range n.flows {
					before[i] = f.rate
				}
				n.recomputeFlowRates()
				for i, f := range n.flows {
					stepped = stepped || f.rate != before[i]
				}
			})
			// A link flap at 1.2 ms kills the flows crossing it. The
			// busiest link is chosen so the kill is never vacuous.
			eng.Schedule(1200*simtime.Microsecond, func() {
				use := make([]int, len(n.links))
				victim := 0
				for _, f := range n.flows {
					for _, l := range f.links {
						if use[l.id]++; use[l.id] > use[victim] {
							victim = l.id
						}
					}
				}
				if err := n.SetLinkAdmin(victim, false); err != nil {
					t.Error(err)
				}
			})
			for eng.Step() {
				check()
			}
			st := n.Stats()
			if st.FlowsStarted == 0 || st.FlowsCompleted != st.FlowsStarted || len(n.flows) != 0 {
				t.Fatalf("ecmp=%v seed=%d: flows did not drain: %+v, %d active", ecmp, seed, st, len(n.flows))
			}
			if st.FlowsFailed == 0 || !stepped || peak < 4 || checks < 100 {
				t.Fatalf("ecmp=%v seed=%d: scenario too thin: %d failed, rate step moved a flow: %v, peak %d concurrent, %d rate checks",
					ecmp, seed, st.FlowsFailed, stepped, peak, checks)
			}
		}
	}
}

// TestWaterFillInvariants checks max-min fairness invariants on random
// flow sets over a fat-tree:
//  1. every active flow has a strictly positive rate;
//  2. no directed link's assigned rates exceed its capacity;
//  3. every flow is bottlenecked: on at least one of its links the
//     remaining capacity is (near) zero — otherwise its rate could grow,
//     contradicting max-min optimality.
func TestWaterFillInvariants(t *testing.T) {
	g, err := topology.FatTree{K: 4, RateBps: 1e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()

	f := func(seed uint64, nFlows uint8) bool {
		eng := engine.New()
		cfg := DefaultConfig(power.DataCenter10G(8))
		cfg.ECMP = true
		n, err := New(eng, g, cfg)
		if err != nil {
			return false
		}
		x := seed
		count := int(nFlows%20) + 2
		for i := 0; i < count; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			src := hosts[x%uint64(len(hosts))]
			x = x*6364136223846793005 + 1442695040888963407
			dst := hosts[x%uint64(len(hosts))]
			if src == dst {
				continue
			}
			// Large flows so none completes during the check window.
			if err := n.TransferFlow(src, dst, 1<<40, nil); err != nil {
				return false
			}
		}
		eng.RunUntil(engineTick)
		if len(n.flows) == 0 {
			return true
		}
		// (1) positive rates.
		for _, fl := range n.flows {
			if fl.rate <= 0 {
				return false
			}
		}
		// (2) capacity respected per directed link.
		type dirKey struct {
			link int
			ab   bool
		}
		usage := make(map[dirKey]float64)
		for _, fl := range n.flows {
			for i, l := range fl.links {
				usage[dirKey{l.id, fl.dirAB[i]}] += fl.rate
			}
		}
		for k, used := range usage {
			cap := n.links[k.link].bytesPerSec()
			if used > cap*(1+1e-9) {
				return false
			}
		}
		// (3) every flow hits a saturated link.
		for _, fl := range n.flows {
			bottlenecked := false
			for i, l := range fl.links {
				k := dirKey{l.id, fl.dirAB[i]}
				if usage[k] >= l.bytesPerSec()*(1-1e-9) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

const engineTick = 1000 // 1 µs: enough to settle the initial rate assignment

func TestFlowThroughHostTransit(t *testing.T) {
	// Flows across a BCube path that relays through hosts must work and
	// respect link sharing on the relay's links.
	g, err := topology.BCube{N: 2, K: 1, RateBps: 1e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	n, err := New(eng, g, DefaultConfig(power.DataCenter10G(4)))
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	// Host 0 (00) to host 3 (11): digits differ in both positions, so
	// the path relays through an intermediate host.
	done := false
	if err := n.TransferFlow(hosts[0], hosts[3], 125_000_000, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !done {
		t.Fatal("host-transit flow did not complete")
	}
	st := n.Stats()
	if st.FlowsCompleted != 1 || st.BytesDelivered != 125_000_000 {
		t.Errorf("stats = %+v", st)
	}
}
