package core

import (
	"fmt"
	"sync"

	"tokencoherence/internal/msg"
)

// Ledger audits the token-counting invariants at runtime. Every
// component reports token sends and receives; the ledger tracks in-flight
// counts per block and records violations instead of panicking so tests
// can report them cleanly.
type Ledger struct {
	// T is the fixed token count per block (invariant #1').
	T int

	// mu serializes reports from different islands of a parallel run.
	// Token messages cross islands with at least one link latency of
	// delay — beyond the lookahead window — so a Sent always lands in an
	// earlier window than its Received and the audited counts cannot
	// depend on island interleaving.
	mu sync.Mutex

	blocks map[msg.Block]tokenCount
	errs   []error
}

// tokenCount is the ledger's view of one block: whether its tokens
// exist, and the tokens and owner tokens sent but not yet received.
type tokenCount struct {
	initialized   bool
	inflight      int
	inflightOwner int
}

// NewLedger builds a ledger for T tokens per block.
func NewLedger(t int) *Ledger {
	if t <= 0 {
		panic("core: token count must be positive")
	}
	return &Ledger{
		T:      t,
		blocks: make(map[msg.Block]tokenCount),
	}
}

func (l *Ledger) fail(format string, args ...any) {
	if len(l.errs) < 32 {
		l.errs = append(l.errs, fmt.Errorf(format, args...))
	}
}

// InitBlock records the lazy creation of a block's T tokens at its home
// memory. Initializing twice is a violation.
func (l *Ledger) InitBlock(b msg.Block) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.blocks[b]
	if c.initialized {
		l.fail("block %d initialized twice", b)
		return
	}
	c.initialized = true
	l.blocks[b] = c
}

// Initialized reports whether the block's tokens exist yet.
func (l *Ledger) Initialized(b msg.Block) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blocks[b].initialized
}

// Sent records tokens leaving a component in a message. It checks
// invariant #4' (owner token implies data).
func (l *Ledger) Sent(b msg.Block, tokens int, owner, hasData bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.blocks[b]
	switch {
	case tokens <= 0:
		l.fail("block %d: sent message with %d tokens", b, tokens)
		return
	case owner && !hasData:
		l.fail("block %d: owner token sent without data (invariant #4')", b)
	case !c.initialized:
		l.fail("block %d: tokens sent before initialization", b)
	case tokens > l.T:
		l.fail("block %d: sent %d tokens, more than T=%d", b, tokens, l.T)
	}
	c.inflight += tokens
	if owner {
		c.inflightOwner++
		if c.inflightOwner > 1 {
			l.fail("block %d: two owner tokens in flight", b)
		}
	}
	l.blocks[b] = c
}

// Received records tokens arriving at a component.
func (l *Ledger) Received(b msg.Block, tokens int, owner bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if tokens <= 0 {
		l.fail("block %d: received message with %d tokens", b, tokens)
		return
	}
	c := l.blocks[b]
	c.inflight -= tokens
	if c.inflight < 0 {
		l.fail("block %d: more tokens received than sent (in-flight %d)", b, c.inflight)
	}
	if owner {
		c.inflightOwner--
		if c.inflightOwner < 0 {
			l.fail("block %d: owner token received but not in flight", b)
		}
	}
	l.blocks[b] = c
}

// InFlight reports tokens currently in transit for b.
func (l *Ledger) InFlight(b msg.Block) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.blocks[b].inflight
}

// Blocks returns every initialized block (order unspecified).
func (l *Ledger) Blocks() []msg.Block {
	out := make([]msg.Block, 0, len(l.blocks))
	for b, c := range l.blocks {
		if c.initialized {
			out = append(out, b)
		}
	}
	return out
}

// CheckConservation verifies invariant #1' for block b given the total
// tokens and owner count held by all components.
func (l *Ledger) CheckConservation(b msg.Block, held, owners int) {
	c := l.blocks[b]
	if !c.initialized {
		if held != 0 || c.inflight != 0 {
			l.fail("block %d: tokens exist without initialization", b)
		}
		return
	}
	if total := held + c.inflight; total != l.T {
		l.fail("block %d: %d tokens held + %d in flight = %d, want T=%d",
			b, held, c.inflight, total, l.T)
	}
	if total := owners + c.inflightOwner; total != 1 {
		l.fail("block %d: %d owner tokens (held+flight), want exactly 1", b, total)
	}
}

// Err summarizes recorded violations (nil when clean).
func (l *Ledger) Err() error {
	if len(l.errs) == 0 {
		return nil
	}
	return fmt.Errorf("ledger: %d invariant violations, first: %w", len(l.errs), l.errs[0])
}

// Violations exposes all recorded violations.
func (l *Ledger) Violations() []error { return l.errs }
