package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// launcher performs one run of a workload — in a fresh child process
// when measuring, so peak RSS and CPU time belong to that run and one
// workload's heap never shapes the next one's GC; in-process under test.
// A non-empty traceDir makes it the traced run.
type launcher struct {
	run    func(w *benchWorkload, input, traceDir string) (record, error)
	layers func(scale int) (map[string]float64, error)
}

var inProcess = launcher{run: runOnce, layers: runLayerRows}

// childProcess re-executes this binary with -child. The child prints
// one JSON value on stdout; stderr passes through.
func childProcess(self string) launcher {
	call := func(out any, args ...string) error {
		cmd := exec.Command(self, args...)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("child %v: %w", args, err)
		}
		if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
			return fmt.Errorf("child %v: bad output: %w", args, err)
		}
		return nil
	}
	return launcher{
		run: func(w *benchWorkload, input, traceDir string) (rec record, err error) {
			args := []string{"-child", w.name, "-input", input}
			if traceDir != "" {
				args = append(args, "-traced", traceDir)
			}
			err = call(&rec, args...)
			return rec, err
		},
		layers: func(scale int) (rows map[string]float64, err error) {
			err = call(&rows, "-child", "layers", "-scale", strconv.Itoa(scale))
			return rows, err
		},
	}
}

// runChild is the -child side: one run, one JSON value.
func runChild(name, input, traceDir string, scale int, stdout io.Writer) error {
	var out any
	if name == "layers" {
		rows, err := runLayerRows(scale)
		if err != nil {
			return err
		}
		out = rows
	} else {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		rec, err := inProcess.run(w, input, traceDir)
		if err != nil {
			return err
		}
		out = rec
	}
	return json.NewEncoder(stdout).Encode(out)
}

// minRepeats is the fewest measured runs a median is taken over.
const minRepeats = 5

// plan says how much to measure: one discarded warm-up and then
// untraced runs while another fits inside seconds (and at least
// minRepeats of them), a burst of the calibration kernel before each,
// then optionally the traced run.
type plan struct {
	seed     uint64
	seconds  float64
	passes   int    // calibration kernel passes per burst
	untraced bool   // report end-to-end metrics
	traced   bool   // make the traced run and report per-layer metrics
	outDir   string // traces, profiles
	// pin is the digest this workload must produce ("" = repeat-agreement
	// only, which is all a held-out seed can be checked against).
	pin string
}

// workloadResult is one workload's section of the results file.
type workloadResult struct {
	Name       string  `json:"name"`
	Digest     string  `json:"digest"`
	Attempted  int64   `json:"attempted"`
	Failed     int64   `json:"failed"`
	FailedFrac float64 `json:"failed_frac"`
	Note       string  `json:"note,omitempty"`
	// HostSpeed is the host's speed over this workload's measurement
	// window as a share of reference speed; the timed end-to-end metrics
	// are host time scaled by it (raw = reported ÷ HostSpeed).
	HostSpeed float64            `json:"host_speed,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// SpanSelfS is each span name's self time in the traced run: its
	// duration minus the part its child spans cover.
	SpanSelfS map[string]float64 `json:"span_self_s,omitempty"`
}

// measureWorkload runs the plan for one workload and checks its
// outputs. A run that crashes, violates an invariant, disagrees in
// digest with the other runs of the seed, or disagrees with the pin
// counts all its ops as failed.
func measureWorkload(l launcher, w *benchWorkload, input string, p plan) (workloadResult, error) {
	res := workloadResult{Name: w.name}
	expected, err := expectedJobs(input)
	if err != nil {
		return res, err
	}

	var recs []record
	digests := make(map[string]int)
	note := func(s string) {
		if res.Note == "" {
			res.Note = s
		}
	}
	account := func(rec record, err error) bool {
		if err != nil {
			rec = record{Attempted: expected, Failed: expected, Note: err.Error()}
		}
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
		if rec.Note != "" {
			note(rec.Note)
		}
		if err == nil {
			digests[rec.Digest]++
			res.Digest = rec.Digest
		}
		return err == nil
	}

	// The warm-up run fills the page cache and the CPU's frequency
	// governor; its timings are discarded, its outputs are still checked.
	start := time.Now()
	account(l.run(w, input, ""))
	last := time.Since(start)
	// A run starts only if one as long as the last would end inside the
	// window, so an invocation takes what it was given. Two failed runs
	// end the loop: a broken build must not spin for the whole budget.
	host := newHostSpeed()
	for failures := 0; failures < 2 && (len(recs) < minRepeats || (time.Since(start)+last).Seconds() < p.seconds); {
		host.burst(p.passes)
		began := time.Now()
		rec, err := l.run(w, input, "")
		last = time.Since(began)
		if account(rec, err) {
			recs = append(recs, rec)
		} else {
			failures++
		}
	}
	host.burst(p.passes)
	res.HostSpeed = host.speed()
	var traced record
	if p.traced {
		var err error
		traced, err = l.run(w, input, p.outDir)
		if !account(traced, err) {
			return finish(res), fmt.Errorf("%s: traced run: %w", w.name, err)
		}
	}

	// Simulated statistics are deterministic per seed: every run must
	// agree, and on the default seed agree with the pin.
	if len(digests) > 1 {
		note(fmt.Sprintf("digest differs between runs of seed %d: %v", p.seed, digests))
		res.Failed = res.Attempted
	} else if p.pin != "" && res.Digest != p.pin {
		note(fmt.Sprintf("digest %s differs from the pinned %s", res.Digest, p.pin))
		res.Failed = res.Attempted
	}
	if len(recs) == 0 {
		return finish(res), fmt.Errorf("%s: no run succeeded: %s", w.name, res.Note)
	}

	med := medianRecord(recs)
	if p.untraced {
		res.EndToEnd = endToEndSummaries(recs, res.HostSpeed)
	}
	if p.traced {
		res.PerLayer = countMetrics(med, traced)
		for k, v := range tracedMetrics(traced, med.RunS) {
			res.PerLayer[k] = v
		}
		res.SpanSelfS = traced.Self
	}
	return finish(res), nil
}

func finish(res workloadResult) workloadResult {
	if res.Attempted > 0 {
		res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	return res
}

// expectedJobs is the op count a run of this input attempts, known
// before running so a crashed run can be charged for all of them.
func expectedJobs(input string) (int64, error) {
	scs, err := decodeInput(input)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range scs {
		n += s.MaxJobs
	}
	return n, nil
}

// endToEndSummaries reduces the measured runs to the end-to-end metrics,
// host times scaled to reference speed (hostSpeed 1: as measured).
func endToEndSummaries(recs []record, hostSpeed float64) map[string]summary {
	col := func(f func(record) float64) []float64 {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		return xs
	}
	values := map[string][]float64{
		"setup_s":        col(func(r record) float64 { return r.SetupS * hostSpeed }),
		"run_s":          col(func(r record) float64 { return r.RunS * hostSpeed }),
		"sim_jobs_per_s": col(func(r record) float64 { return float64(r.Jobs) / (r.RunS * hostSpeed) }),
		"cpu_s":          col(func(r record) float64 { return r.CPUS * hostSpeed }),
		"peak_rss_mb":    col(func(r record) float64 { return r.PeakRSSMB }),
	}
	out := make(map[string]summary, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = summarizeSamples(m.unit, values[m.name])
	}
	return out
}

// medianRecord reduces the measured runs to the medians the count
// metrics are derived from. Simulated fields are identical across runs.
func medianRecord(recs []record) record {
	col := func(f func(record) float64) float64 {
		xs := make([]float64, len(recs))
		for i, r := range recs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	med := recs[0]
	med.RunS = col(func(r record) float64 { return r.RunS })
	med.Mallocs = uint64(col(func(r record) float64 { return float64(r.Mallocs) }))
	med.Bytes = uint64(col(func(r record) float64 { return float64(r.Bytes) }))
	med.GCCycles = uint32(col(func(r record) float64 { return float64(r.GCCycles) }))
	med.GCPauseMS = col(func(r record) float64 { return r.GCPauseMS })
	return med
}
