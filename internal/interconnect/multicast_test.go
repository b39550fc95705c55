package interconnect

import (
	"testing"

	"tokencoherence/internal/msg"
	"tokencoherence/internal/sim"
	"tokencoherence/internal/stats"
	"tokencoherence/internal/topology"
)

// TestMulticastTreeIsUnionOfPaths checks the multicast tree against the
// routes it is folded from, on the largest fabrics the experiments
// sweep: a full broadcast's slab holds exactly the distinct links of the
// union of its paths (one entry per tree edge, not per path hop), every
// edge hangs off the edge whose head it leaves from, each destination
// ends on exactly one edge, and delivering the broadcast hands each
// destination one copy while charging each tree link's bytes once.
func TestMulticastTreeIsUnionOfPaths(t *testing.T) {
	fabrics := []struct {
		name string
		topo topology.Topology
	}{
		{"torus-256", topology.NewTorusFor(256)},
		{"tree-64", topology.NewTree(64)},
	}
	for _, f := range fabrics {
		f := f
		t.Run(f.name, func(t *testing.T) {
			pt, ok := f.topo.(topology.Partitioned)
			if !ok {
				t.Fatalf("%s does not describe its link endpoints", f.name)
			}
			for _, src := range []msg.NodeID{0, msg.NodeID(f.topo.Nodes() / 3)} {
				checkBroadcastTree(t, f.topo, pt, src)
			}
		})
	}
}

func checkBroadcastTree(t *testing.T, topo topology.Topology, pt topology.Partitioned, src msg.NodeID) {
	t.Helper()
	k := sim.NewKernel()
	var tr stats.Traffic
	n := New(k, topo, DefaultConfig(), &tr)
	cs := registerAll(k, n, msg.UnitCache)
	nodes := topo.Nodes()
	var dsts []msg.Port
	union := make(map[topology.LinkID]bool)
	for i := 0; i < nodes; i++ {
		dst := msg.Port{Node: msg.NodeID(i), Unit: msg.UnitCache}
		dsts = append(dsts, dst)
		for _, l := range topo.Path(src, dst.Node) {
			union[l] = true
		}
	}

	// The tree as Multicast builds it.
	mc := n.getMcast()
	for _, dst := range dsts {
		if path := n.path(src, dst.Node); len(path) > 0 {
			mc.add(path, dst)
		}
	}
	if len(mc.slab) != len(union) {
		t.Errorf("src %d: slab holds %d edges, union of paths has %d links", src, len(mc.slab), len(union))
	}
	seen := make(map[topology.LinkID]bool)
	ended := make(map[msg.Port]int)
	var visit func(first int32, from int)
	visit = func(first int32, from int) {
		for e := first; e >= 0; e = mc.slab[e].next {
			nd := mc.slab[e]
			l := topology.LinkID(nd.link)
			if !union[l] {
				t.Errorf("src %d: tree edge on link %d is on no path", src, l)
			}
			if seen[l] {
				t.Errorf("src %d: link %d appears twice in the tree", src, l)
			}
			seen[l] = true
			if tail := pt.LinkTail(l); tail != from {
				t.Errorf("src %d: edge on link %d leaves actor %d, its parent ends at %d", src, l, tail, from)
			}
			for d := nd.dest; d >= 0; d = mc.dests[d].next {
				ended[mc.dests[d].port]++
			}
			visit(nd.child, pt.LinkHead(l))
		}
	}
	visit(mc.root, int(src))
	if len(seen) != len(mc.slab) {
		t.Errorf("src %d: %d of %d slab edges reachable from the root", src, len(seen), len(mc.slab))
	}
	for _, dst := range dsts {
		want := 1
		if dst.Node == src && len(n.path(src, src)) == 0 {
			want = 0 // delivered locally, not through the tree
		}
		if ended[dst] != want {
			t.Errorf("src %d: destination %v ends on %d tree edges, want %d", src, dst, ended[dst], want)
		}
	}
	n.putMcast(mc)

	// The tree as the fabric walks it.
	m := n.NewMessage()
	*m = msg.Message{Kind: msg.KindGetS, Cat: msg.CatRequest, Src: msg.Port{Node: src, Unit: msg.UnitCache}}
	bytes := uint64(m.Bytes())
	n.Multicast(m, dsts)
	k.Run()
	for node, c := range cs {
		if len(c.got) != 1 {
			t.Errorf("src %d: node %d received %d copies, want 1", src, node, len(c.got))
		}
	}
	for l, b := range n.LinkBytes() {
		want := uint64(0)
		if union[topology.LinkID(l)] {
			want = bytes
		}
		if b != want {
			t.Errorf("src %d: link %d carried %d bytes, want %d", src, l, b, want)
		}
	}
	if got, want := tr.Messages(msg.CatRequest), uint64(len(union)); got != want {
		t.Errorf("src %d: traffic recorded %d link traversals, want %d", src, got, want)
	}
}
