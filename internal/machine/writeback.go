package machine

import "tokencoherence/internal/msg"

// WBEntry holds an evicted owner line in a cache's writeback buffer
// until the home resolves the writeback (acknowledges it, declares it
// stale, or grants the slot, depending on the protocol).
type WBEntry struct {
	Data    uint64
	Dirty   bool
	Written bool
	// Owner is cleared when a forwarded request or probe takes ownership
	// away from the buffered copy; the writeback is then stale.
	Owner bool
	// Epoch is the home transaction that made this node owner of the
	// evicted copy (directory protocols; zero elsewhere).
	Epoch uint64
}

// WritebackBuffer is a cache controller's per-block FIFO of pending
// writebacks. A block can have several pending entries when ownership is
// lost and re-acquired while writebacks are in flight; the home resolves
// them in eviction order. At most one entry per block is the owner, and
// it is always the newest.
type WritebackBuffer struct {
	pending map[msg.Block][]WBEntry
}

// Push appends an evicted owner line. Evicting while an older entry
// still owns the block is a protocol bug and panics.
func (w *WritebackBuffer) Push(b msg.Block, e WBEntry) {
	if w.Owner(b) != nil {
		panic("machine: evicting while an older writeback still owns the block")
	}
	if w.pending == nil {
		w.pending = make(map[msg.Block][]WBEntry)
	}
	e.Owner = true
	w.pending[b] = append(w.pending[b], e)
}

// Owner returns the entry that still owns b, or nil. The pointer is
// valid until the next Push or Pop for b.
func (w *WritebackBuffer) Owner(b msg.Block) *WBEntry {
	entries := w.pending[b]
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Owner {
			return &entries[i]
		}
	}
	return nil
}

// Pending reports how many writebacks of b await resolution.
func (w *WritebackBuffer) Pending(b msg.Block) int { return len(w.pending[b]) }

// Pop retires and returns the oldest pending writeback of b. Popping an
// empty buffer (a resolution with nothing pending) panics.
func (w *WritebackBuffer) Pop(b msg.Block) WBEntry {
	entries := w.pending[b]
	if len(entries) == 0 {
		panic("machine: writeback resolved with no pending writeback")
	}
	if len(entries) == 1 {
		delete(w.pending, b)
	} else {
		w.pending[b] = entries[1:]
	}
	return entries[0]
}
