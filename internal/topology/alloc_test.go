//go:build !race

package topology

import (
	"runtime"
	"testing"
)

// TestFatTreeBuildAllocsFlat: a builder sizes its graph up front and
// names nodes into one arena, so its allocation count does not grow
// with the fabric. K=16 (1,024 hosts) and K=32 (8,192 hosts) make the
// same number of objects. Excluded from -race builds, whose
// instrumentation allocates on its own.
func TestFatTreeBuildAllocsFlat(t *testing.T) {
	runtime.GC() // the first collection starts workers, which allocate
	allocs := func(k int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := (FatTree{K: k}).Build(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a16, a32 := allocs(16), allocs(32); a16 != a32 {
		t.Fatalf("FatTree K=16 build makes %.0f objects, K=32 %.0f; want the same", a16, a32)
	}
}
