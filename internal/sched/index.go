package sched

import (
	"math/bits"

	"holdcsim/internal/server"
)

// idset is a set of server IDs: bit i%64 of w[i/64] is set for member i,
// and bit k%64 of sum[k/64] is set while w[k] is non-zero, so a search
// for the next member skips 4,096 absent IDs per summary word.
type idset struct {
	w   []uint64
	sum []uint64
}

// newIDSet returns an empty set over IDs [0, n).
func newIDSet(n int) idset {
	words := (n + 63) / 64
	return idset{w: make([]uint64, words), sum: make([]uint64, (words+63)/64)}
}

func (b *idset) add(i int) {
	k := i / 64
	b.w[k] |= 1 << (i % 64)
	b.sum[k/64] |= 1 << (k % 64)
}

func (b *idset) remove(i int) {
	k := i / 64
	if b.w[k] &^= 1 << (i % 64); b.w[k] == 0 {
		b.sum[k/64] &^= 1 << (k % 64)
	}
}

// has reports whether i is a member.
func (b *idset) has(i int) bool { return b.w[i/64]&(1<<(i%64)) != 0 }

// next returns the lowest member ≥ i, or -1.
func (b *idset) next(i int) int {
	return b.nextNot(i, nil)
}

// nextNot returns the lowest member ≥ i whose bit in not is clear, or
// -1. A nil not excludes nothing; otherwise it covers every word of b.
func (b *idset) nextNot(i int, not []uint64) int {
	k := i / 64
	if k >= len(b.w) {
		return -1
	}
	m := b.w[k] & (^uint64(0) << (i % 64))
	for {
		if not != nil {
			m &^= not[k]
		}
		if m != 0 {
			return k*64 + bits.TrailingZeros64(m)
		}
		if k = nextSet(b.sum, k+1); k < 0 {
			return -1
		}
		m = b.w[k]
	}
}

// nextSet returns the lowest i' ≥ i whose bit (i'%64 of w[i'/64]) is
// set, or -1: an idset's next non-zero word over its summary, or the
// next ID in a bare bitset such as the farm's asleep set.
func nextSet(w []uint64, i int) int {
	k := i / 64
	if k >= len(w) {
		return -1
	}
	for m := w[k] & (^uint64(0) << (i % 64)); ; m = w[k] {
		if m != 0 {
			return k*64 + bits.TrailingZeros64(m)
		}
		if k++; k == len(w) {
			return -1
		}
	}
}

// levels files server IDs under small counts: set[c] holds the servers
// filed at c, n[c] counts them and at[id] is where server id is filed,
// −1 for nowhere. A set's words are made when its first member arrives,
// so levels cost what the counts reached, not their depth times the
// farm.
type levels struct {
	set []idset
	n   []int
	at  []int32
}

func newLevels(depth, ids int) levels {
	at := make([]int32, ids)
	for id := range at {
		at[id] = -1
	}
	return levels{set: make([]idset, depth), n: make([]int, depth), at: at}
}

// file moves server id to level c, −1 being no level.
func (l *levels) file(id, c int) {
	from := int(l.at[id])
	if from == c {
		return
	}
	if from >= 0 {
		l.set[from].remove(id)
		l.n[from]--
	}
	if c >= 0 {
		if l.set[c].w == nil {
			l.set[c] = newIDSet(len(l.at))
		}
		l.set[c].add(id)
		l.n[c]++
	}
	l.at[id] = int32(c)
}

// levelIndex returns the scheduler's load levels, building them on the
// first ask, as leastLoaded builds the load tree: runs whose placer
// never asks pay nothing. From then on reindex keeps them current.
func (s *Scheduler) levelIndex() *levels {
	if s.lv.n == nil {
		widest := 0
		for _, srv := range s.servers {
			widest = max(widest, srv.Cores())
		}
		s.lv = newLevels(widest, len(s.servers))
		for id := range s.servers {
			s.lv.file(id, s.level(id))
		}
	}
	return &s.lv
}

// level is server id's load level: its committed count while it is up
// and has a spare slot, else −1.
func (s *Scheduler) level(id int) int {
	if k := s.loadKey(id); k < s.servers[id].Cores() {
		return k
	}
	return -1
}

// leastSpare returns the alive server with an ID below hi and a spare
// slot that has the fewest commitments, ties to the lower ID: the lowest
// member of the first level whose lowest member is below hi. Nil when
// none qualifies.
func (s *Scheduler) leastSpare(hi int) *server.Server {
	l := s.levelIndex()
	for c, n := range l.n {
		if n > 0 {
			if id := l.set[c].next(0); id < hi {
				return s.servers[id]
			}
		}
	}
	return nil
}

// pack consolidates onto the alive servers with IDs ≥ lo: the awake one
// with a spare slot and the most commitments (ties to the lower ID),
// else the lowest-ID sleeping one, else — everything awake and
// saturated — the least loaded alive server of the whole farm. The
// first is the lowest awake member of the highest level that has one,
// the second the farm's asleep set's lowest bit (a crashed server is
// never asleep).
func (s *Scheduler) pack(lo int) *server.Server {
	lo = max(lo, 0)
	l := s.levelIndex()
	asleep := s.farm.Asleep()
	for c := len(l.n) - 1; c >= 0; c-- {
		if l.n[c] > 0 {
			if id := l.set[c].nextNot(lo, asleep); id >= 0 {
				return s.servers[id]
			}
		}
	}
	if id := nextSet(asleep, lo); id >= 0 && id < len(s.servers) {
		return s.servers[id]
	}
	return s.leastLoaded()
}
