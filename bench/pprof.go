package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
)

// A CPU profile is a gzip-compressed protobuf (profile.proto). The
// module has no dependencies, so the few fields attribution needs are
// decoded by hand: samples (location IDs leaf-first, values), locations
// (lines, innermost inlined frame first), functions (name index) and
// the string table.

// profile is the decoded subset: each sample's stack as function names,
// leaf first, with its sample count.
type profile struct {
	stacks [][]string
	counts []int64
}

func readProfile(path string) (*profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := make(map[uint64][]uint64) // location -> function IDs, innermost first
	funcName := make(map[uint64]uint64)   // function -> string index
	var strs []string

	err = eachField(data, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			if err := eachField(body, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					// value[0] is the sample count (value[1] is nanoseconds).
					if vals := appendVarints(nil, v, b); first && len(vals) > 0 {
						s.count, first = int64(vals[0]), false
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(body, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(body, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}

	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.stacks = append(p.stacks, stack)
		p.counts = append(p.counts, s.count)
	}
	return p, nil
}

// eachField walks one protobuf message. Varint fields arrive in varint,
// length-delimited ones in body; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: truncated field %d", num)
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return fmt.Errorf("profile: truncated fixed field %d", num)
			}
			msg = msg[w:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value
// when it came unpacked (body nil), the packed run otherwise.
func appendVarints(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, n := binary.Uvarint(body)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		body = body[n:]
	}
	return dst
}

const internalPrefix = "holdcsim/internal/"

// shareLayers are the cpu_share.* rows. Packages without a row fold
// into a neighbour: the sampling and clock helpers into the layer that
// calls them most.
var shareLayers = []string{"engine", "server", "sched", "network", "job", "workload", "stats", "power",
	"invariant", "modelcov", "fault", "core", "scenario", "runner", "topology", "runtime_gc", "other"}

var foldInto = map[string]string{"dist": "workload", "rng": "workload", "trace": "workload", "simtime": "engine"}

// layerOf names the internal package a function belongs to, "" if none.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if to, ok := foldInto[rest]; ok {
		return to
	}
	return rest
}

// attribute applies the cpu_share rule to one stack (leaf first): the
// sample belongs to the innermost frame under holdcsim/internal/<pkg>,
// so hashing and allocation called from a layer count for that layer;
// a stack with no such frame is the collector's if a GC worker is on
// it, otherwise "other". alloc reports runtime.mallocgc anywhere on the
// stack, an overlapping view.
func attribute(stack []string) (layer string, alloc bool) {
	gc := false
	for _, fn := range stack {
		if l := layerOf(fn); l != "" && layer == "" {
			layer = l
		}
		switch {
		case fn == "runtime.mallocgc":
			alloc = true
		case fn == "runtime.gcBgMarkWorker", fn == "runtime.bgsweep", fn == "runtime.bgscavenge":
			gc = true
		}
	}
	switch {
	case layer != "":
	case gc:
		layer = "runtime_gc"
	default:
		layer = "other"
	}
	return layer, alloc
}

// cpuShares reads a CPU profile and returns each layer's share of the
// samples, plus "alloc".
func cpuShares(path string) (map[string]float64, error) {
	p, err := readProfile(path)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(shareLayers)+1)
	for _, l := range shareLayers {
		shares[l] = 0
	}
	shares["alloc"] = 0
	var total float64
	for i, stack := range p.stacks {
		n := float64(p.counts[i])
		layer, alloc := attribute(stack)
		if _, ok := shares[layer]; !ok {
			layer = "other" // an internal package without a row (experiments, validate)
		}
		shares[layer] += n
		if alloc {
			shares["alloc"] += n
		}
		total += n
	}
	if total == 0 {
		return shares, nil // a run too short to be sampled has no shares to give
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, nil
}
