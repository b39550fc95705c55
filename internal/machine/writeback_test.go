package machine

import (
	"fmt"
	"strings"
	"testing"

	"tokencoherence/internal/msg"
)

func TestWritebackBuffer(t *testing.T) {
	// One step on the buffer. push adds an owner entry carrying data;
	// disown clears the current owner entry's Owner flag (a forward took
	// ownership away); owner expects the owning entry's data (0 = no
	// owner); pop expects the oldest entry's data and Owner flag.
	type step struct {
		do    string
		blk   msg.Block
		data  uint64
		owner bool
	}
	push := func(b msg.Block, d uint64) step { return step{do: "push", blk: b, data: d} }
	disown := func(b msg.Block) step { return step{do: "disown", blk: b} }
	owner := func(b msg.Block, d uint64) step { return step{do: "owner", blk: b, data: d} }
	pop := func(b msg.Block, d uint64, own bool) step { return step{do: "pop", blk: b, data: d, owner: own} }

	for _, tc := range []struct {
		name  string
		steps []step
		// panics is a substring of the panic the last step must raise
		// ("" = no panic).
		panics string
	}{
		{name: "pops in eviction order", steps: []step{
			push(1, 10), disown(1), push(1, 11), disown(1), push(1, 12),
			pop(1, 10, false), pop(1, 11, false), pop(1, 12, true), owner(1, 0),
		}},
		{name: "newest entry is the owner", steps: []step{
			push(1, 10), disown(1), push(1, 11), owner(1, 11), disown(1), owner(1, 0),
			pop(1, 10, false), pop(1, 11, false),
		}},
		{name: "blocks are independent", steps: []step{
			push(1, 10), push(2, 20), owner(1, 10), owner(2, 20),
			pop(2, 20, true), owner(1, 10), owner(2, 0), pop(1, 10, true),
		}},
		{name: "re-evict after the owner is popped", steps: []step{
			push(1, 10), pop(1, 10, true), push(1, 11), owner(1, 11),
		}},
		{name: "owner overlap panics", steps: []step{
			push(1, 10), disown(1), push(1, 11), push(1, 12),
		}, panics: "still owns"},
		{name: "pop from empty buffer panics", steps: []step{
			pop(1, 0, false),
		}, panics: "no pending writeback"},
		{name: "pop past the last entry panics", steps: []step{
			push(1, 10), pop(1, 10, true), pop(1, 0, false),
		}, panics: "no pending writeback"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w WritebackBuffer
			pending := map[msg.Block]int{}
			for i, s := range tc.steps {
				last := i == len(tc.steps)-1
				got := func() (p any) {
					defer func() { p = recover() }()
					switch s.do {
					case "push":
						w.Push(s.blk, WBEntry{Data: s.data})
						pending[s.blk]++
					case "disown":
						w.Owner(s.blk).Owner = false
					case "owner":
						var d uint64
						if e := w.Owner(s.blk); e != nil {
							d = e.Data
						}
						if d != s.data {
							t.Errorf("step %d: owner of block %d has data %d, want %d", i, s.blk, d, s.data)
						}
					case "pop":
						e := w.Pop(s.blk)
						pending[s.blk]--
						if e.Data != s.data || e.Owner != s.owner {
							t.Errorf("step %d: pop of block %d = {Data:%d Owner:%v}, want {Data:%d Owner:%v}",
								i, s.blk, e.Data, e.Owner, s.data, s.owner)
						}
					}
					return nil
				}()
				switch {
				case got != nil && (!last || tc.panics == ""):
					t.Fatalf("step %d (%s) panicked: %v", i, s.do, got)
				case last && tc.panics != "" && got == nil:
					t.Fatalf("step %d (%s) did not panic, want %q", i, s.do, tc.panics)
				case last && tc.panics != "" && !strings.Contains(fmt.Sprint(got), tc.panics):
					t.Fatalf("step %d (%s) panicked with %v, want %q", i, s.do, got, tc.panics)
				}
				if got == nil {
					for b, n := range pending {
						if w.Pending(b) != n {
							t.Fatalf("step %d: Pending(%d) = %d, want %d", i, b, w.Pending(b), n)
						}
					}
				}
			}
		})
	}
}
