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
	for _, v := range m { // want "map iteration with order-dependent effects"
		shared = append(shared, v)
	}
}

// A slices/sort call that does not sort is not the idiom.
func collectThenContains(m map[int]bool) bool {
	var keys []int
	for k := range m { // want "map iteration with order-dependent effects"
		keys = append(keys, k)
	}
	return slices.Contains(keys, 1)
}

// Sorting another variable named keys, in another function, does not
// admit this loop.
func collectUnsorted(m map[int]bool) []int {
	var keys []int
	for k := range m { // want "map iteration with order-dependent effects"
		keys = append(keys, k)
	}
	return keys
}

func sortOtherKeys(keys []int) { sort.Ints(keys) }

func mapOrderInsensitive(m map[string]int) int {
	total := 0
	for _, v := range m { // commutative accumulation: order-insensitive
		total += v
	}
	for k, v := range m { // per-key writes into another map: order-insensitive
		counts[k] = v
	}
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort idiom: order-insensitive
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best := 0
	for _, v := range m { // max-update idiom: order-insensitive
		if v > best {
			best = v
		}
	}
	return total + best + len(keys)
}

type cell struct{ n int }

func mapStatementLattice(m map[string]int, grid map[string][]cell) (int, int, int) {
	prod, bits, least := 1, 0, 1<<30
	for k, v := range m { // every statement form below commutes
		var scaled, masked int
		scaled = v * 2
		prod *= scaled
		bits |= v
		bits &= ^scaled
		bits ^= masked
		prod++
		if v < least { // min-update (reversed comparison operands)
			least = v
		}
		if v == 0 {
			delete(counts, k)
			continue
		} else if v < 0 {
			local := cell{n: v}
			local.n = -local.n
			prod *= local.n
		}
		switch v % 3 {
		case 0:
			bits++
		default:
			bits--
		}
		for i := 0; i < 2; i++ {
			prod += i
		}
		for _, c := range grid[k] { // nested range: only its effects matter
			bits += c.n
		}
	}
	return prod, bits, least
}

func mapOrderDependentForms(m map[string]int, cells []cell) {
	for _, v := range m { // want "map iteration with order-dependent effects"
		if v > 0 {
			break // exits the loop order-dependently
		}
	}
	for k := range m { // want "map iteration with order-dependent effects"
		delete(counts, "not-"+k+"-the-key") // delete not keyed by the loop variable
	}
	for _, v := range m { // want "map iteration with order-dependent effects"
		cells[0].n = v // indexed write not keyed by the loop variable
	}
	x, y := 0, 1
	for _, v := range m { // want "map iteration with order-dependent effects"
		x, y = y, v // tuple assignment
	}
	sink = x + y
	for _, v := range m { // want "map iteration with order-dependent effects"
		if len(shared) < cap(shared) { // pure condition, impure body
			shared = append(shared, v)
		}
	}
}
