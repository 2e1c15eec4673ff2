package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from bench's side of
// the layer's exported API. Run groups the spans of one simulation (the
// campaign has one per matrix point); Parent is the ID of the span that
// caused this one, 0 for the root.
type span struct {
	ID     int
	Parent int
	Run    int
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced path pays one nil check per call
// site. Safe for the campaign's worker goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// do times fn as a child of parent and returns the new span's ID for
// fn's own children.
func (r *recorder) do(name string, parent, run int, fn func(id int)) {
	if r == nil {
		fn(0)
		return
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name, Start: time.Since(r.epoch)})
	r.mu.Unlock()
	fn(id)
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// totals sums span durations by name, in seconds.
func (r *recorder) totals() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.Name] += s.dur().Seconds()
	}
	return out
}

// selfTimes reports, per span name, duration minus the part of the
// interval that child spans cover (children of parallel workers overlap,
// so coverage is the union of their intervals, not their sum).
func (r *recorder) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.Name] += (s.dur() - covered(children[s.ID])).Seconds()
	}
	return out
}

func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end time.Duration
	for _, s := range spans {
		if s.Start > end {
			end = s.Start
		}
		if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (opens in Perfetto and chrome://tracing); timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON: one lane
// (tid) per run, span and parent IDs in args.
func (r *recorder) writeChrome(path string) error {
	events := make([]chromeEvent, len(r.spans))
	for i, s := range r.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Run,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "run": s.Run},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
