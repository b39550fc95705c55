package cache

import (
	"math/rand"
	"testing"

	"tokencoherence/internal/msg"
)

// refWay is one way of the reference model.
type refWay struct {
	used  bool
	block msg.Block
	lru   uint64
	data  uint64
}

// refCache is a naive flat set-associative LRU cache: every way of every
// set exists up front, and residency is a per-way flag. The paged cache
// must be observably identical to it.
type refCache struct {
	sets, assoc int
	ways        []refWay
	tick        uint64
	entries     int
}

func newRef(sets, assoc int) *refCache {
	return &refCache{sets: sets, assoc: assoc, ways: make([]refWay, sets*assoc)}
}

func (r *refCache) set(b msg.Block) []refWay {
	s := int(uint64(b) % uint64(r.sets))
	return r.ways[s*r.assoc : (s+1)*r.assoc]
}

func (r *refCache) lookup(b msg.Block) *refWay {
	set := r.set(b)
	for i := range set {
		if set[i].used && set[i].block == b {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) touch(w *refWay) {
	r.tick++
	w.lru = r.tick
}

func (r *refCache) allocate(b msg.Block, avoid func(msg.Block) bool) (victim refWay, evicted bool) {
	set := r.set(b)
	free, pref, oldest := -1, -1, -1
	for i, w := range set {
		if !w.used {
			if free < 0 {
				free = i
			}
			continue
		}
		if oldest < 0 || w.lru < set[oldest].lru {
			oldest = i
		}
		if (avoid == nil || !avoid(w.block)) && (pref < 0 || w.lru < set[pref].lru) {
			pref = i
		}
	}
	if free < 0 {
		free = pref
		if free < 0 {
			free = oldest
		}
		victim, evicted = set[free], true
		r.entries--
	}
	set[free] = refWay{used: true, block: b}
	r.entries++
	r.touch(&set[free])
	return victim, evicted
}

func (r *refCache) remove(b msg.Block) {
	if w := r.lookup(b); w != nil {
		*w = refWay{}
		r.entries--
	}
}

func (r *refCache) victimFor(b msg.Block) *refWay {
	var lru *refWay
	set := r.set(b)
	for i := range set {
		if !set[i].used {
			return nil
		}
		if lru == nil || set[i].lru < lru.lru {
			lru = &set[i]
		}
	}
	return lru
}

// TestAgainstReferenceModel drives the paged cache and the flat
// reference with the same random operation sequence and compares every
// observable: hits and their contents, victims, Len, and the ForEach
// visit order. The geometries cover a single set, a cache smaller than
// one page, a set count that leaves the last page partial, a
// non-power-of-two set count, and the paper's L1.
func TestAgainstReferenceModel(t *testing.T) {
	geoms := []struct{ sets, assoc int }{
		{1, 4},
		{8, 2},
		{96, 4},
		{200, 3},
		{512, 4},
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			checkAgainstReference(t, g.sets, g.assoc, seed)
		}
	}
}

func checkAgainstReference(t *testing.T, sets, assoc int, seed int64) {
	t.Helper()
	c := New(sets*assoc*msg.BlockSize, assoc)
	r := newRef(sets, assoc)
	rng := rand.New(rand.NewSource(seed))
	// Blocks span a few times the capacity so sets fill and conflict,
	// offset so the low tags are not all small.
	span := 3 * sets * assoc
	base := msg.Block(rng.Intn(1 << 20))
	pick := func() msg.Block { return base + msg.Block(rng.Intn(span)) }
	avoided := make(map[msg.Block]bool)
	avoid := func(b msg.Block) bool { return avoided[b] }
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("sets=%d assoc=%d seed=%d step %d: "+format,
			append([]any{sets, assoc, seed, step}, args...)...)
	}
	for step := 0; step < 20000; step++ {
		b := pick()
		switch op := rng.Intn(7); op {
		case 0, 1: // Lookup, touching on a hit
			got, want := c.Lookup(b), r.lookup(b)
			if (got == nil) != (want == nil) {
				fail(step, "Lookup(%d) hit=%v, reference hit=%v", b, got != nil, want != nil)
			}
			if got != nil {
				if got.Block != b || got.Data != want.data {
					fail(step, "Lookup(%d) = block %d data %d, reference data %d", b, got.Block, got.Data, want.data)
				}
				if rng.Intn(2) == 0 {
					c.Touch(got)
					r.touch(want)
				}
				got.Data = rng.Uint64()
				want.data = got.Data
			}
		case 2, 3: // Allocate / AllocateAvoiding of an absent block
			if c.Lookup(b) != nil {
				continue
			}
			var line *Line
			var victim Line
			var evicted bool
			var rv refWay
			var revicted bool
			if op == 2 {
				line, victim, evicted = c.Allocate(b)
				rv, revicted = r.allocate(b, nil)
			} else {
				if rng.Intn(3) == 0 {
					avoided[pick()] = true
				}
				line, victim, evicted = c.AllocateAvoiding(b, avoid)
				rv, revicted = r.allocate(b, avoid)
			}
			if evicted != revicted {
				fail(step, "Allocate(%d) evicted=%v, reference %v", b, evicted, revicted)
			}
			if evicted && (victim.Block != rv.block || victim.Data != rv.data) {
				fail(step, "Allocate(%d) victim block %d data %d, reference block %d data %d",
					b, victim.Block, victim.Data, rv.block, rv.data)
			}
			if line.Block != b || line.Data != 0 || line.Tokens != 0 {
				fail(step, "Allocate(%d) returned %+v, want a fresh line", b, *line)
			}
			line.Data = rng.Uint64()
			r.lookup(b).data = line.Data
		case 4: // Remove
			c.Remove(b)
			r.remove(b)
		case 5: // VictimFor
			got, want := c.VictimFor(b), r.victimFor(b)
			if (got == nil) != (want == nil) {
				fail(step, "VictimFor(%d) = %v, reference %v", b, got != nil, want != nil)
			}
			if got != nil && got.Block != want.block {
				fail(step, "VictimFor(%d) = block %d, reference %d", b, got.Block, want.block)
			}
		case 6: // ForEach order
			var order []msg.Block
			c.ForEach(func(l *Line) { order = append(order, l.Block) })
			var want []msg.Block
			for _, w := range r.ways {
				if w.used {
					want = append(want, w.block)
				}
			}
			if len(order) != len(want) {
				fail(step, "ForEach visited %d lines, reference %d", len(order), len(want))
			}
			for i := range want {
				if order[i] != want[i] {
					fail(step, "ForEach visit %d = block %d, reference %d", i, order[i], want[i])
				}
			}
		}
		if c.Len() != r.entries {
			fail(step, "Len() = %d, reference %d", c.Len(), r.entries)
		}
	}
}

// materialized counts the pages holding storage.
func materialized(c *Cache) int {
	n := 0
	for _, pg := range c.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestPagesMaterializeOnAllocate pins the lazy layout: the paper's 4 MB
// 4-way L2 holds no page until a block is allocated, probes of absent
// pages allocate nothing, and one Allocate materializes exactly one
// page.
func TestPagesMaterializeOnAllocate(t *testing.T) {
	c := New(4<<20, 4)
	if got := materialized(c); got != 0 {
		t.Fatalf("new cache holds %d pages, want 0", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Lookup(12345)
		c.Remove(777)
		c.VictimFor(99)
	})
	if allocs != 0 || materialized(c) != 0 {
		t.Fatalf("probes of an empty cache allocated %.0f objects and %d pages", allocs, materialized(c))
	}
	c.Allocate(12345)
	if got := materialized(c); got != 1 {
		t.Fatalf("one Allocate materialized %d pages, want 1", got)
	}
	if c.Lookup(12345) == nil {
		t.Fatal("allocated block not found")
	}
	// A second block in the same page reuses it.
	c.Allocate(12345 + 1)
	if got := materialized(c); got != 1 {
		t.Fatalf("a second Allocate in the same page materialized %d pages, want 1", got)
	}
}
