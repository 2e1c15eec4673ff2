package experiments

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestFormatRho(t *testing.T) {
	cases := map[float64]string{0.3: "30%", 0.6: "60%", 0.35: "35%", 0.05: "5%", 0.995: "99.5%", 1: "100%"}
	for rho, want := range cases {
		if got := formatRho(rho); got != want {
			t.Errorf("formatRho(%v) = %q, want %q", rho, got, want)
		}
	}
}

// Sweep points one decimal apart used to share a CDF key ("30%" for
// both 0.3 and 0.35), the later silently overwriting the earlier.
func TestFig11CDFKeysDistinct(t *testing.T) {
	p := QuickFig11()
	p.Utilizations = []float64{0.3, 0.35}
	p.Jobs = 50
	r, err := Fig11(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CDFs) != 4 { // 2 policies x 2 utilizations
		t.Fatalf("CDF series = %d, want 4: %v", len(r.CDFs), keysOf(r.CDFs))
	}
	for _, k := range []string{"server-balanced/30%", "server-balanced/35%"} {
		if len(r.CDFs[k]) == 0 {
			t.Errorf("no CDF under key %q: %v", k, keysOf(r.CDFs))
		}
	}
}

func keysOf[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "b"}}
	tb.Addf(1.5, "x")
	tb.Add("2", "y")
	s := tb.String()
	if !strings.Contains(s, "# t") || !strings.Contains(s, "a\tb") ||
		!strings.Contains(s, "1.5\tx") || !strings.Contains(s, "2\ty") {
		t.Errorf("table rendering:\n%s", s)
	}
}

func TestFig4Provisioning(t *testing.T) {
	r, err := Fig4(QuickFig4())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series.Rows) < 50 {
		t.Fatalf("series too short: %d rows", len(r.Series.Rows))
	}
	if r.JobsCompleted == 0 {
		t.Error("no jobs completed")
	}
	// The provisioner must actually modulate the active set: it sheds
	// from the initial full farm and the count varies with the diurnal
	// load.
	if r.MaxActive <= r.MinActive {
		t.Errorf("active servers never varied: min=%v max=%v", r.MinActive, r.MaxActive)
	}
	if r.MinActive < 1 {
		t.Errorf("active floor violated: %v", r.MinActive)
	}
	if r.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestFig5DelayTimerShape(t *testing.T) {
	p := QuickFig5()
	r, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := 0
	for _, wl := range p.Workloads {
		wantPoints += len(wl.TausSec) * len(p.Utilizations)
	}
	if len(r.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(r.Points), wantPoints)
	}
	// Shape checks per (workload, rho): energy at the best interior τ
	// beats both aggressive τ=0.1-ish and the largest τ in the grid.
	byKey := make(map[string][]Fig5Point)
	for _, pt := range r.Points {
		key := pt.Workload + "/" + formatRho(pt.Rho)
		byKey[key] = append(byKey[key], pt)
	}
	for key, pts := range byKey {
		first, last := pts[0], pts[len(pts)-1]
		best := math.Inf(1)
		for _, pt := range pts {
			if pt.TauSec > 0 && pt.TauSec < last.TauSec && pt.EnergyJ < best {
				best = pt.EnergyJ
			}
		}
		if best >= last.EnergyJ {
			t.Errorf("%s: no right side of the U (best interior %.0f >= tail %.0f)",
				key, best, last.EnergyJ)
		}
		// τ=0 must wreck tail latency (the flapping pathology).
		if first.TauSec == 0 && first.P95LatS < 5*pts[1].P95LatS {
			t.Errorf("%s: τ=0 p95 %.3fs not clearly worse than τ>0 %.3fs",
				key, first.P95LatS, pts[1].P95LatS)
		}
	}
	if len(r.OptimalTau) == 0 {
		t.Error("no optima recorded")
	}
}

func TestFig6DualTimerSaves(t *testing.T) {
	r, err := Fig6(QuickFig6())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, pt := range r.Points {
		if pt.BaselineJ <= 0 || pt.DualTimerJ <= 0 {
			t.Fatalf("non-positive energies: %+v", pt)
		}
		// The dual-timer policy must beat the Active-Idle baseline
		// substantially (the paper reports up to 45%).
		if pt.ReductionPct < 5 {
			t.Errorf("%s/%d/rho=%.1f: reduction %.1f%% too small",
				pt.Workload, pt.Servers, pt.Rho, pt.ReductionPct)
		}
	}
}

func TestFig8ResidencyShape(t *testing.T) {
	r, err := Fig8(QuickFig8())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range r.Rows {
		sum := row.Active + row.WakeUp + row.Idle + row.PkgC6 + row.SysSleep
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("rho=%.1f: residency sums to %v", row.Rho, sum)
		}
	}
	// Active share grows with utilization; sleep share shrinks.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.Active <= first.Active {
		t.Errorf("active residency not increasing: %.3f -> %.3f", first.Active, last.Active)
	}
	if first.SysSleep+first.PkgC6 <= last.SysSleep+last.PkgC6 {
		t.Errorf("low-power residency not decreasing: %.3f -> %.3f",
			first.SysSleep+first.PkgC6, last.SysSleep+last.PkgC6)
	}
	// At low load the framework parks most capacity in low-power states.
	if first.SysSleep+first.PkgC6 < 0.4 {
		t.Errorf("only %.2f low-power residency at rho=%.1f",
			first.SysSleep+first.PkgC6, first.Rho)
	}
}

func TestFig9AdaptiveBeatsTimer(t *testing.T) {
	r, err := Fig9(QuickFig9())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.TimerPerServer) != 10 || len(r.AdaptivePerServer) != 10 {
		t.Fatal("per-server results missing")
	}
	if r.SavingPct <= 0 {
		t.Errorf("adaptive framework saved %.1f%%, want positive", r.SavingPct)
	}
	// The adaptive policy concentrates energy on a small subset: its
	// per-server spread (max/min) must exceed the timer policy's.
	spread := func(per []struct{ CPU, DRAM, Platform float64 }) float64 { return 0 }
	_ = spread
	maxA, minA := 0.0, math.Inf(1)
	for _, e := range r.AdaptivePerServer {
		tot := e.CPU + e.DRAM + e.Platform
		if tot > maxA {
			maxA = tot
		}
		if tot < minA {
			minA = tot
		}
	}
	if maxA/math.Max(minA, 1) < 1.5 {
		t.Errorf("adaptive energy not concentrated: max=%.0f min=%.0f", maxA, minA)
	}
}

func TestFig11JointOptimization(t *testing.T) {
	r, err := Fig11(QuickFig11())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 { // 2 policies x 2 utilizations
		t.Fatalf("points = %d", len(r.Points))
	}
	for rho, saving := range r.ServerSavingPct {
		if saving < -5 {
			t.Errorf("rho=%.1f: network-aware LOST %.1f%% server power", rho, -saving)
		}
	}
	for rho, saving := range r.NetworkSavingPct {
		if saving < -5 {
			t.Errorf("rho=%.1f: network-aware LOST %.1f%% network power", rho, -saving)
		}
	}
	// At least one utilization must show a clear network win (paper: ~18%).
	won := false
	for _, s := range r.NetworkSavingPct {
		if s > 3 {
			won = true
		}
	}
	if !won {
		t.Errorf("no meaningful network savings: %v", r.NetworkSavingPct)
	}
	// Latency CDFs exist for all four cells.
	if len(r.CDFs) != 4 {
		t.Errorf("CDFs = %d", len(r.CDFs))
	}
}

func TestFig12ServerValidation(t *testing.T) {
	r, err := Fig12(QuickFig12())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SimulatedW) < 100 {
		t.Fatalf("series too short: %d", len(r.SimulatedW))
	}
	// The paper reports ~0.22W (~1.3%); allow a loose band since the
	// reference carries noise.
	if r.MeanAbsDiffW > 2.0 {
		t.Errorf("mean abs diff = %.3f W, want < 2", r.MeanAbsDiffW)
	}
	if r.ErrorPct > 20 {
		t.Errorf("error = %.1f%%, want < 20%%", r.ErrorPct)
	}
	if r.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestFig13SwitchValidation(t *testing.T) {
	r, err := Fig13(QuickFig13())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SimulatedW) < 250 {
		t.Fatalf("series too short: %d", len(r.SimulatedW))
	}
	// Ports must actually toggle with load.
	minP, maxP := r.ActivePorts[0], r.ActivePorts[0]
	for _, n := range r.ActivePorts {
		if n < minP {
			minP = n
		}
		if n > maxP {
			maxP = n
		}
	}
	if maxP == 0 {
		t.Error("no port ever active")
	}
	if maxP == minP {
		t.Error("port activity never varied")
	}
	// The paper reports <0.12 W mean difference, 0.04 W std.
	if r.MeanAbsDiffW > 0.5 {
		t.Errorf("mean abs diff = %.3f W, want < 0.5", r.MeanAbsDiffW)
	}
	if r.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestTableICapabilitiesAndScale(t *testing.T) {
	r, err := TableI(QuickTableI())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Features.Rows) < 8 {
		t.Errorf("feature matrix rows = %d", len(r.Features.Rows))
	}
	if r.JobsCompleted == 0 {
		t.Error("scalability run completed no jobs")
	}
	if r.EventsPerSec <= 0 {
		t.Error("no event throughput measured")
	}
	if r.Summary() == "" {
		t.Error("empty summary")
	}
}
