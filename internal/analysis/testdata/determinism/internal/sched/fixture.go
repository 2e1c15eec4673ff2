// Package sched is a determinism fixture: its import path places it in
// a model package, where the byte-identical-replay contract applies.
package sched

import (
	"math/rand"
	"os"
	"slices"
	"sort"
	"time"
)

var sink interface{}

func wallClock() {
	t := time.Now()             // want "time.Now in model package"
	sink = time.Since(t)        // want "time.Since in model package"
	sink = time.Until(t)        // want "time.Until in model package"
	sink = time.Unix(0, 0) // only clock reads are banned, not construction
}

var clock = time.Now // want "time.Now in model package"

func globalRand() {
	sink = rand.Intn(4)       // want "global math/rand.Intn in model package"
	sink = rand.Float64()     // want "global math/rand.Float64 in model package"
	r := rand.New(rand.NewSource(1)) // explicit seeded generator: fine
	sink = r.Intn(4)
}

func environment() {
	sink = os.Getenv("HOME")  // want "os.Getenv in model package"
	_, ok := os.LookupEnv("X") // want "os.LookupEnv in model package"
	sink = ok
}

var shared []int
var counts = map[string]int{}

func mapOrderDependent(m map[string]int) {
	for _, v := range m { // want "range over map in model package"
		shared = append(shared, v)
	}
}

// A slices/sort call that does not sort is not the idiom.
func collectThenContains(m map[int]bool) bool {
	var keys []int
	for k := range m { // want "range over map in model package"
		keys = append(keys, k)
	}
	return slices.Contains(keys, 1)
}

// Sorting another variable named keys, in another function, does not
// admit this loop.
func collectUnsorted(m map[int]bool) []int {
	var keys []int
	for k := range m { // want "range over map in model package"
		keys = append(keys, k)
	}
	return keys
}

func sortOtherKeys(keys []int) { sort.Ints(keys) }

// Only collect-then-sort is admitted. A body that looks order-free is
// still a finding: the float sum below is not, since float addition is
// not associative.
func mapOrderFreeLooking(m map[string]int, fm map[string]float64) int {
	total := 0
	for _, v := range m { // want "range over map in model package"
		total += v
	}
	for k, v := range m { // want "range over map in model package"
		counts[k] = v
	}
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort idiom: admitted
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := 0
	for _, v := range m { // want "range over map in model package"
		if v > best {
			best = v
		}
	}
	var sum float64
	for _, f := range fm { sum += f } // want "range over map in model package"
	sink = sum
	return total + best + len(keys)
}

type cell struct{ n int }

// Whatever the body does, a map range outside the idiom is a finding.
func mapOrderDependentForms(m map[string]int, cells []cell) {
	for _, v := range m { // want "range over map in model package"
		if v > 0 {
			break
		}
	}
	for k := range m { // want "range over map in model package"
		delete(counts, "not-"+k+"-the-key")
	}
	for _, v := range m { // want "range over map in model package"
		cells[0].n = v
	}
	x, y := 0, 1
	for _, v := range m { // want "range over map in model package"
		x, y = y, v
	}
	sink = x + y
	for _, v := range m { // want "range over map in model package"
		if len(shared) < cap(shared) {
			shared = append(shared, v)
		}
	}
}
