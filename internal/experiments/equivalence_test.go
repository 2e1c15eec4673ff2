package experiments

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"holdcsim/internal/runner"
)

// TestWorkerCountEquivalence is the "parallel ≡ serial" contract for the
// campaign runner (DESIGN.md Sec. 5): every Quick experiment's full
// rendered output — series, summaries, optima, CDFs — must be
// byte-identical at worker counts 1, 2 and GOMAXPROCS. Run under -race
// in CI, this also shakes out any shared mutable state between runs.
func TestWorkerCountEquivalence(t *testing.T) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var want string
			for _, w := range counts {
				got, err := c.run(runner.Options{Workers: w}, false, nil)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if want == "" {
					want = got
					continue
				}
				if got != want {
					line := 1
					for i := 0; i < len(got) && i < len(want); i++ {
						if got[i] != want[i] {
							break
						}
						if got[i] == '\n' {
							line++
						}
					}
					t.Fatalf("workers=%d output differs from workers=1 near line %d", w, line)
				}
			}
		})
	}
}

// TestFig5Replications exercises first-class replications end to end on
// the flagship sweep: the series gains mean/stddev/CI columns, the
// stddev is finite and non-negative, and replication 0 keeps the base
// seed so the mean stays anchored to the historical single-run value.
func TestFig5Replications(t *testing.T) {
	p := QuickFig5()
	// Trim the grid: replications triple the work and the statistical
	// machinery is identical at every point.
	p.Utilizations = p.Utilizations[:1]
	p.Workloads = p.Workloads[:1]

	base, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}

	p.Exec = runner.Options{Reps: 3}
	r, err := Fig5(p)
	if err != nil {
		t.Fatal(err)
	}
	h := strings.Join(r.Series.Header, "\t")
	for _, col := range []string{"energy_std_J", "energy_ci95_J", "reps"} {
		if !strings.Contains(h, col) {
			t.Fatalf("header %q missing %q", h, col)
		}
	}
	if len(r.Series.Rows) != len(base.Series.Rows) {
		t.Fatalf("points = %d, want %d", len(r.Series.Rows), len(base.Series.Rows))
	}
	stdCol := len(r.Series.Header) - 3
	for i, row := range r.Series.Rows {
		if len(row) != len(r.Series.Header) {
			t.Fatalf("row %d has %d cells for %d columns", i, len(row), len(r.Series.Header))
		}
		std, err := strconv.ParseFloat(row[stdCol], 64)
		if err != nil {
			t.Fatalf("row %d std cell %q: %v", i, row[stdCol], err)
		}
		if std < 0 {
			t.Errorf("row %d: negative stddev %v", i, std)
		}
		if reps := row[len(row)-1]; reps != "3" {
			t.Errorf("row %d: reps column = %q", i, reps)
		}
	}
	// Mean energy must stay in the neighbourhood of the single-run
	// value: same model, three seeds. 25% tolerates seed-to-seed noise
	// at quick scale while catching aggregation mistakes (sums instead
	// of means, dropped replications).
	baseEnergy := numbers(t, base.Series, "energy_J")
	for i, e := range numbers(t, r.Series, "energy_J") {
		if b := baseEnergy[i]; e < 0.75*b || e > 1.25*b {
			t.Errorf("point %d: mean energy %v strayed from base %v", i, e, b)
		}
	}
}

// TestReplicationSeedsIndependent checks that replication expansion
// derives distinct streams: with a real stochastic model, three seed
// variants almost surely give three distinct energies at some point.
func TestReplicationSeedsIndependent(t *testing.T) {
	p := QuickFig8()
	p.Utilizations = p.Utilizations[:1]
	p.Exec = runner.Options{Reps: 3}
	r, err := Fig8(p)
	if err != nil {
		t.Fatal(err)
	}
	// With distinct rep seeds the active-residency stddev cannot be
	// exactly zero (that would mean all reps saw identical draws).
	stdCol := len(r.Series.Header) - 3
	allZero := true
	for _, row := range r.Series.Rows {
		if row[stdCol] != "0" {
			allZero = false
		}
	}
	if allZero {
		t.Error("every replication produced identical residencies; rep seeds are not independent")
	}
}
