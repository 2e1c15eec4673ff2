package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts for one (workload, end-to-end metric) row.
const (
	verdictImproved   = "improved"
	verdictNoChange   = "no change"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares side b against base a for one metric. The printed
// ratio is b's median over a's; "worse" is the share by which b trails
// a, taken so that a time and the rate derived from it agree. It counts
// as a gain or a regression only beyond the metric's bound. Where either side's own run-to-run spread exceeds
// the bound and the two sides' runs overlap, the row is unresolved: the
// instrument cannot tell, and "no change" would claim it can.
func verdict(m metric, a, b summary) (string, float64) {
	ratio := b.Median / a.Median
	worse := ratio - 1
	if m.better == "higher" {
		worse = 1/ratio - 1
	}
	noisy := a.spread() > m.bound || b.spread() > m.bound
	if noisy && overlap(a.Samples, b.Samples) {
		return verdictUnresolved, ratio
	}
	switch {
	case worse > m.bound:
		return verdictRegressed, ratio
	case worse < -m.bound:
		return verdictImproved, ratio
	}
	return verdictNoChange, ratio
}

// overlap reports whether the two sample ranges intersect.
func overlap(a, b []float64) bool {
	return quantile(a, 0) <= quantile(b, 1) && quantile(b, 0) <= quantile(a, 1)
}

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints one verdict per (workload, end-to-end metric) and
// checks the exact rows — sim digests, events per job, model error —
// for equality. Exit code: 0 all rows "no change"/"improved" and exact
// rows equal, 1 otherwise, 2 when the files cannot be compared at all.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	return compareResults(a, b, stdout, stderr)
}

func compareResults(a, b results, stdout, stderr io.Writer) int {
	if !a.Fingerprint.sameMachine(b.Fingerprint) {
		fmt.Fprintf(stderr, "bench: refusing to compare across machines:\n  A %+v\n  B %+v\n", a.Fingerprint, b.Fingerprint)
		return 2
	}
	if a.Seed != b.Seed || a.Quick != b.Quick {
		fmt.Fprintf(stderr, "bench: refusing to compare different inputs: A seed %d quick %v, B seed %d quick %v\n",
			a.Seed, a.Quick, b.Seed, b.Quick)
		return 2
	}
	fmt.Fprintf(stdout, "A: commit %s   B: commit %s   (%s, %d cores, %s)\n",
		a.Fingerprint.Commit, b.Fingerprint.Commit, a.Fingerprint.CPUModel, a.Fingerprint.Cores, a.Fingerprint.GoVersion)
	bByName := make(map[string]workloadResult)
	for _, w := range b.Workloads {
		bByName[w.Name] = w
	}
	bad := false
	// must marks rows no change may move (simulated statistics); events
	// per job repeats exactly too, but an optimisation may remove events.
	exact := func(label, name string, x, y any, must bool) {
		state := "equal"
		if x != y {
			state = "changed"
			if must {
				state, bad = "DIFFERS", true
			}
		}
		fmt.Fprintf(stdout, "%-10s %-26s exact  %-10s A %v  B %v\n", label, name, state, x, y)
	}
	for _, wa := range a.Workloads {
		wb, ok := bByName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			sa, okA := wa.EndToEnd[m.name]
			sb, okB := wb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			v, ratio := verdict(m, sa, sb)
			if v == verdictRegressed || v == verdictUnresolved {
				bad = true
			}
			fmt.Fprintf(stdout, "%-10s %-26s %-10s B/A %.3f of base %.6g %s  (A spread %.1f%% n=%d, B spread %.1f%% n=%d, bound %.0f%%)\n",
				wa.Name, m.name, v, ratio, sa.Median, m.unit, 100*sa.spread(), sa.N, 100*sb.spread(), sb.N, 100*m.bound)
		}
		exact(wa.Name, "failed_frac", wa.FailedFrac, wb.FailedFrac, true)
		exact(wa.Name, "digest", wa.Digest, wb.Digest, true)
		if _, ok := wa.PerLayer["engine.events_per_job"]; ok {
			exact(wa.Name, "engine.events_per_job", wa.PerLayer["engine.events_per_job"], wb.PerLayer["engine.events_per_job"], false)
		}
	}
	for _, name := range []string{"validate.server_mae_w", "validate.switch_mae_w"} {
		if _, ok := a.Layers[name]; ok {
			exact("layers", name, a.Layers[name], b.Layers[name], true)
		}
	}
	if bad {
		return 1
	}
	return 0
}
