// Package hot is a hotpath fixture: functions annotated
// //simlint:hotpath must not allocate per call.
package hot

import "fmt"

type item struct{ a, b, c int }

var callbacks []func() int
var out []int
var boxed interface{}

//simlint:hotpath
func hot(items []item) {
	for i := range items {
		callbacks = append(callbacks, // want "append in a hot path may grow"
			func() int { return i }) // want "closure captures loop variable i"
	}
	fmt.Println("hot") // want "fmt.Println in a hot path allocates"
	boxed = items[0]   // want "value of type item boxed into interface\{\} in a hot path"
	out = append(out, len(items)) //simlint:allow hotpath fixture demonstrates an allowed free-list-style append
	if len(items) > 1<<20 {
		panic(fmt.Sprintf("too many items: %d", len(items))) // failure path: exempt
	}
}

// cold has the identical body but no annotation: the hotpath contract is
// opt-in, so nothing is flagged.
func cold(items []item) {
	for i := range items {
		callbacks = append(callbacks, func() int { return i })
	}
	fmt.Println("cold")
	boxed = items[0]
}

//simlint:hotpath
func hoisted(items []item, f func() int) int {
	// Pointer-shaped values box without allocating; closures defined
	// outside loops allocate once.
	g := func() int { return f() + 1 }
	boxed = &items[0]
	return g()
}

//simlint:hotpath
func forLoopCapture(n int) {
	for i := 0; i < n; i++ {
		callbacks = append(callbacks, // want "append in a hot path may grow"
			func() int { return i * 2 }) // want "closure captures loop variable i"
	}
}

func variadic(vs ...interface{}) int { return len(vs) }

//simlint:hotpath
func boxingForms(items []item, ch chan interface{}, pre []interface{}) interface{} {
	ch <- items[0]   // want "value of type item boxed into interface\{\} in a hot path"
	_ = variadic(items[1]) // want "value of type item boxed into interface\{\} in a hot path"
	_ = variadic(pre...)   // spreading an existing []interface{}: no box
	_ = variadic(nil, 3)   // untyped nil and constants: no box
	return items[2] // want "value of type item boxed into interface\{\} in a hot path"
}

type pool struct {
	free    []*item
	buckets [4][]*item
	stats   struct{ seen []int }
}

// Pushing one element onto a list the receiver owns is the free-list and
// bucket idiom: accepted without annotation.
//
//simlint:hotpath
func (p *pool) put(it *item, slot int) {
	p.free = append(p.free, it)
	p.buckets[slot] = append(p.buckets[slot], it)
	p.stats.seen = append(p.stats.seen, slot)
}

// Anything else that can grow is still flagged: two elements at once, a
// list that is not the one assigned to, a list the receiver does not own.
//
//simlint:hotpath
func (p *pool) grow(other *pool, it *item) {
	p.free = append(p.free, it, it)     // want "append in a hot path may grow"
	p.free = append(other.free, it)     // want "append in a hot path may grow"
	other.free = append(other.free, it) // want "append in a hot path may grow"
}
