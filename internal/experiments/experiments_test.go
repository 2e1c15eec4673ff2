package experiments

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"holdcsim/internal/runner"
)

// column is the index of tb's column name.
func column(t *testing.T, tb *Table, name string) int {
	t.Helper()
	i := slices.Index(tb.Header, name)
	if i < 0 {
		t.Fatalf("%q has no column %q: %v", tb.Title, name, tb.Header)
	}
	return i
}

// number parses a numeric cell.
func number(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// numbers is tb's column name, parsed.
func numbers(t *testing.T, tb *Table, name string) []float64 {
	t.Helper()
	i := column(t, tb, name)
	out := make([]float64, len(tb.Rows))
	for r, row := range tb.Rows {
		out[r] = number(t, row[i])
	}
	return out
}

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
	if len(r.Series.Rows) != wantPoints {
		t.Fatalf("points = %d, want %d", len(r.Series.Rows), wantPoints)
	}
	// Shape checks per (workload, rho): energy at the best interior τ
	// beats both aggressive τ=0.1-ish and the largest τ in the grid.
	type point struct{ tau, energy, p95 float64 }
	wl, rho := column(t, r.Series, "workload"), column(t, r.Series, "rho")
	tau, energy, p95 := numbers(t, r.Series, "tau_s"), numbers(t, r.Series, "energy_J"), numbers(t, r.Series, "p95_lat_s")
	byKey := make(map[string][]point)
	for i, row := range r.Series.Rows {
		key := row[wl] + "/" + row[rho]
		byKey[key] = append(byKey[key], point{tau[i], energy[i], p95[i]})
	}
	for key, pts := range byKey {
		first, last := pts[0], pts[len(pts)-1]
		best := math.Inf(1)
		for _, pt := range pts {
			if pt.tau > 0 && pt.tau < last.tau && pt.energy < best {
				best = pt.energy
			}
		}
		if best >= last.energy {
			t.Errorf("%s: no right side of the U (best interior %.0f >= tail %.0f)",
				key, best, last.energy)
		}
		// τ=0 must wreck tail latency (the flapping pathology).
		if first.tau == 0 && first.p95 < 5*pts[1].p95 {
			t.Errorf("%s: τ=0 p95 %.3fs not clearly worse than τ>0 %.3fs",
				key, first.p95, pts[1].p95)
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
	baseline, dual := numbers(t, r.Series, "baseline_J"), numbers(t, r.Series, "dual_J")
	for i, pt := range r.Points {
		if baseline[i] <= 0 || dual[i] <= 0 {
			t.Fatalf("non-positive energies: %v", r.Series.Rows[i])
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
	n := len(r.Series.Rows)
	if n == 0 {
		t.Fatal("no rows")
	}
	rho, active := numbers(t, r.Series, "rho"), numbers(t, r.Series, "active")
	wakeup, idle := numbers(t, r.Series, "wakeup"), numbers(t, r.Series, "idle")
	pkgc6, syssleep := numbers(t, r.Series, "pkgc6"), numbers(t, r.Series, "syssleep")
	for i := range n {
		sum := active[i] + wakeup[i] + idle[i] + pkgc6[i] + syssleep[i]
		if math.Abs(sum-1) > 0.02 {
			t.Errorf("rho=%.1f: residency sums to %v", rho[i], sum)
		}
	}
	// Active share grows with utilization; sleep share shrinks.
	if active[n-1] <= active[0] {
		t.Errorf("active residency not increasing: %.3f -> %.3f", active[0], active[n-1])
	}
	lowFirst, lowLast := syssleep[0]+pkgc6[0], syssleep[n-1]+pkgc6[n-1]
	if lowFirst <= lowLast {
		t.Errorf("low-power residency not decreasing: %.3f -> %.3f", lowFirst, lowLast)
	}
	// At low load the framework parks most capacity in low-power states.
	if lowFirst < 0.4 {
		t.Errorf("only %.2f low-power residency at rho=%.1f", lowFirst, rho[0])
	}
}

func TestFig9AdaptiveBeatsTimer(t *testing.T) {
	r, err := Fig9(QuickFig9())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series.Rows) != 10 {
		t.Fatal("per-server results missing")
	}
	if r.SavingPct <= 0 {
		t.Errorf("adaptive framework saved %.1f%%, want positive", r.SavingPct)
	}
	// The adaptive policy concentrates energy on a small subset: its
	// per-server max/min spread is wide.
	cpu, dram := numbers(t, r.Series, "adaptive_cpu_kJ"), numbers(t, r.Series, "adaptive_dram_kJ")
	platform := numbers(t, r.Series, "adaptive_platform_kJ")
	maxA, minA := 0.0, math.Inf(1)
	for i := range cpu {
		tot := cpu[i] + dram[i] + platform[i]
		maxA, minA = max(maxA, tot), min(minA, tot)
	}
	if maxA/math.Max(minA, 1e-3) < 1.5 {
		t.Errorf("adaptive energy not concentrated: max=%.3f min=%.3f kJ", maxA, minA)
	}
}

func TestFig11JointOptimization(t *testing.T) {
	r, err := Fig11(QuickFig11())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series.Rows) != 4 { // 2 policies x 2 utilizations
		t.Fatalf("points = %d", len(r.Series.Rows))
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
	if len(r.Series.Rows) < 100 {
		t.Fatalf("series too short: %d", len(r.Series.Rows))
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
	ports := numbers(t, r.Series, "active_ports")
	minP, maxP := slices.Min(ports), slices.Max(ports)
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
	// A single-task job is at least an arrival and a completion, and
	// every event left the queue through a tier the counters see.
	if r.Events < 2*uint64(r.JobsCompleted) {
		t.Errorf("%d events for %d jobs", r.Events, r.JobsCompleted)
	}
	if c := r.Engine; c.BottomPops == 0 || c.BottomLen < c.BottomPops || c.LanePushes == 0 {
		t.Errorf("engine counters %+v", c)
	}
	if got := r.Summary(); !strings.Contains(got, fmt.Sprintf("%d events", r.Events)) ||
		!strings.Contains(got, fmt.Sprintf("engine: %d bottom pops", r.Engine.BottomPops)) {
		t.Errorf("summary does not show the events and counters:\n%s", got)
	}
	// The row is one run at the base seed: replications and workers
	// leave every figure as it is.
	p := QuickTableI()
	p.Exec = runner.Options{Workers: 2, Reps: 3}
	again, err := TableI(p)
	if err != nil {
		t.Fatal(err)
	}
	if again.JobsCompleted != r.JobsCompleted || again.SimSeconds != r.SimSeconds ||
		again.Events != r.Events || again.Engine != r.Engine {
		t.Errorf("with 3 replications on 2 workers: %+v, alone: %+v", again, r)
	}
}
