// Package cache implements the set-associative cache structures used by
// every coherence controller: LRU replacement, per-line coherence
// metadata (protocol-defined state plus token-coherence token counts),
// and the two-level (L1 filter over L2) latency hierarchy of Table 1.
package cache

import (
	"fmt"

	"tokencoherence/internal/msg"
)

// Line is one cache line. The coherence protocol owns the interpretation
// of State; Token Coherence additionally uses Tokens/Owner/Valid.
type Line struct {
	Block msg.Block
	// State is a protocol-defined stable-state tag (MOSI etc.).
	State int
	// Tokens is the token count held for the block, including the owner
	// token when Owner is set (Token Coherence only).
	Tokens int
	// Owner marks possession of the owner token.
	Owner bool
	// Valid marks that Data holds a valid copy (distinct from tag
	// validity; a line may hold tokens without data under the optimized
	// invariants).
	Valid bool
	// Dirty marks data modified relative to memory (drives writeback
	// decisions); it travels with the owner token.
	Dirty bool
	// Written marks that this node itself wrote the block while holding
	// it. The migratory-sharing optimization triggers only on blocks the
	// responder wrote, so Written never travels in messages.
	Written bool
	// Epoch is a protocol-defined ordering tag (the directory protocol
	// stores the home transaction number of the fill so stale
	// invalidations can be recognized).
	Epoch uint64
	// Data is the block payload, modelled as a write version.
	Data uint64

	lru uint64
}

// Reset clears a line for reuse, preserving nothing.
func (l *Line) Reset() {
	*l = Line{}
}

// pageShift sets the page size: a page covers 1<<pageShift consecutive
// sets. Pages are the unit of lazy materialization, so host memory grows
// with the sets a run actually touches rather than with the modelled
// capacity (the paper's 4 MB L2 is 16384 sets, of which a short run
// touches a few percent, clustered by the workloads' contiguous
// regions).
const pageShift = 6

// page holds the tags and lines of 1<<pageShift sets (fewer for the
// last page of a cache whose set count is not a page multiple). tags is
// the residency record: tags[i] is the resident block+1 of way i (set
// major), or 0 when the way is empty. A probe scans one contiguous tag
// group and touches a Line only on a hit.
type page struct {
	tags  []uint64
	lines []Line
}

// Cache is a set-associative cache with LRU replacement. It tracks tags
// and metadata only; timing is the caller's concern. Storage is paged:
// a page is allocated by the first Allocate into one of its sets, and
// probes of an absent page miss without allocating.
type Cache struct {
	sets    int
	assoc   int
	pages   []*page
	tick    uint64
	entries int
}

// New builds a cache of the given total size in bytes and associativity,
// with msg.BlockSize lines. Size must divide evenly into sets.
func New(sizeBytes, assoc int) *Cache {
	if sizeBytes <= 0 || assoc <= 0 {
		panic("cache: size and associativity must be positive")
	}
	blocks := sizeBytes / msg.BlockSize
	if blocks == 0 || blocks%assoc != 0 {
		panic(fmt.Sprintf("cache: %d bytes / %d-way does not form whole sets", sizeBytes, assoc))
	}
	sets := blocks / assoc
	return &Cache{
		sets:  sets,
		assoc: assoc,
		pages: make([]*page, (sets+1<<pageShift-1)>>pageShift),
	}
}

// Sets reports the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Assoc reports the associativity.
func (c *Cache) Assoc() int { return c.assoc }

// Len reports the number of resident lines.
func (c *Cache) Len() int { return c.entries }

// tag is the residency tag of b (0 is reserved for an empty way).
func tag(b msg.Block) uint64 { return uint64(b) + 1 }

// locate returns the set holding b: its page index and the offset of
// the set's first way within that page.
func (c *Cache) locate(b msg.Block) (p, base int) {
	s := int(uint64(b) % uint64(c.sets))
	return s >> pageShift, (s & (1<<pageShift - 1)) * c.assoc
}

// find returns the way of b within the set at base of pg, or -1.
func (c *Cache) find(pg *page, base int, b msg.Block) int {
	t := tag(b)
	for i, got := range pg.tags[base : base+c.assoc] {
		if got == t {
			return i
		}
	}
	return -1
}

// materialize allocates page p.
func (c *Cache) materialize(p int) *page {
	n := min(1<<pageShift, c.sets-p<<pageShift) * c.assoc
	pg := &page{tags: make([]uint64, n), lines: make([]Line, n)}
	c.pages[p] = pg
	return pg
}

// Lookup returns the line holding b, or nil. It does not update LRU
// state; call Touch on use.
func (c *Cache) Lookup(b msg.Block) *Line {
	p, base := c.locate(b)
	pg := c.pages[p]
	if pg == nil {
		return nil
	}
	if i := c.find(pg, base, b); i >= 0 {
		return &pg.lines[base+i]
	}
	return nil
}

// Touch marks the line most-recently-used.
func (c *Cache) Touch(l *Line) {
	c.tick++
	l.lru = c.tick
}

// Allocate returns a line for b, evicting the LRU line of the set if the
// set is full. The returned victim holds the evicted line's contents (or
// ok=false if no eviction occurred). The new line is zeroed apart from
// its Block and is already touched. Allocating a block that is present
// panics — the caller must Lookup first.
func (c *Cache) Allocate(b msg.Block) (line *Line, victim Line, evicted bool) {
	return c.AllocateAvoiding(b, nil)
}

// AllocateAvoiding is Allocate with a victim-selection filter: lines for
// which avoid returns true are evicted only when every line of the set
// is marked avoid. Coherence controllers use it to keep lines with
// in-flight transactions resident when possible.
func (c *Cache) AllocateAvoiding(b msg.Block, avoid func(msg.Block) bool) (line *Line, victim Line, evicted bool) {
	p, base := c.locate(b)
	pg := c.pages[p]
	if pg == nil {
		pg = c.materialize(p)
	}
	tags := pg.tags[base : base+c.assoc]
	set := pg.lines[base : base+c.assoc]
	t := tag(b)
	free, lruPreferred, lruAny := -1, -1, -1
	for i, got := range tags {
		if got == t {
			panic(fmt.Sprintf("cache: Allocate of resident block %d", b))
		}
		if got == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		l := &set[i]
		if lruAny < 0 || l.lru < set[lruAny].lru {
			lruAny = i
		}
		if avoid == nil || !avoid(l.Block) {
			if lruPreferred < 0 || l.lru < set[lruPreferred].lru {
				lruPreferred = i
			}
		}
	}
	if free < 0 {
		free = lruPreferred
		if free < 0 {
			free = lruAny
		}
		victim = set[free]
		evicted = true
		set[free].Reset()
		c.entries--
	}
	tags[free] = t
	line = &set[free]
	line.Block = b
	c.entries++
	c.Touch(line)
	return line, victim, evicted
}

// Remove evicts b without replacement (e.g., on invalidation). It is a
// no-op if b is absent.
func (c *Cache) Remove(b msg.Block) {
	p, base := c.locate(b)
	pg := c.pages[p]
	if pg == nil {
		return
	}
	if i := c.find(pg, base, b); i >= 0 {
		pg.tags[base+i] = 0
		pg.lines[base+i].Reset()
		c.entries--
	}
}

// VictimFor returns the line that Allocate(b) would evict, or nil when a
// free way exists. Callers use it to issue writebacks before allocating.
func (c *Cache) VictimFor(b msg.Block) *Line {
	p, base := c.locate(b)
	pg := c.pages[p]
	if pg == nil {
		return nil
	}
	set := pg.lines[base : base+c.assoc]
	var lru *Line
	for i, got := range pg.tags[base : base+c.assoc] {
		if got == 0 {
			return nil
		}
		if l := &set[i]; lru == nil || l.lru < lru.lru {
			lru = l
		}
	}
	return lru
}

// ForEach visits every resident line in set-major, way order. The
// callback must not allocate or remove lines.
func (c *Cache) ForEach(f func(*Line)) {
	for _, pg := range c.pages {
		if pg == nil {
			continue
		}
		for i, got := range pg.tags {
			if got != 0 {
				f(&pg.lines[i])
			}
		}
	}
}
