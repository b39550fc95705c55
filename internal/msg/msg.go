// Package msg defines the coherence-message vocabulary shared by every
// protocol in the simulator: node/unit addressing, block naming, message
// kinds, wire sizes, and traffic categories.
//
// The paper's protocols exchange 8-byte control messages and 72-byte data
// messages (8-byte header + 64-byte cache block). Every protocol package
// builds its messages from the kinds declared here so that the traffic
// accounting in package stats can classify them uniformly.
package msg

import "fmt"

// NodeID identifies one highly-integrated node (processor + caches +
// memory controller + coherence controllers), 0..N-1.
type NodeID int

// Unit selects a controller within a node.
type Unit uint8

const (
	// UnitCache is the node's cache coherence controller.
	UnitCache Unit = iota
	// UnitMem is the node's memory controller (home for an address slice).
	UnitMem
	// UnitArbiter is the persistent-request arbiter co-located with the
	// home memory controller (Token Coherence only).
	UnitArbiter
	// UnitProc is the processor-side port, used only for completion
	// notifications in tests.
	UnitProc
)

func (u Unit) String() string {
	switch u {
	case UnitCache:
		return "cache"
	case UnitMem:
		return "mem"
	case UnitArbiter:
		return "arbiter"
	case UnitProc:
		return "proc"
	}
	return fmt.Sprintf("unit(%d)", uint8(u))
}

// Port addresses one controller in the system.
type Port struct {
	Node NodeID
	Unit Unit
}

func (p Port) String() string { return fmt.Sprintf("%v@%d", p.Unit, p.Node) }

// Addr is a physical byte address.
type Addr uint64

// Block is a cache-block number (Addr >> BlockShift).
type Block uint64

// Cache-block geometry (Table 1: 64-byte blocks).
const (
	BlockShift = 6
	BlockSize  = 1 << BlockShift
)

// BlockOf returns the block containing a.
func BlockOf(a Addr) Block { return Block(a >> BlockShift) }

// Base returns the first byte address of the block.
func (b Block) Base() Addr { return Addr(b) << BlockShift }

// HomeOf returns the node whose memory controller is home for block b in
// an n-node system (block-interleaved, as in the Alpha 21364 and Origin).
func HomeOf(b Block, n int) NodeID { return NodeID(uint64(b) % uint64(n)) }

// Wire sizes (paper §5.1): "All request, acknowledgment, invalidation,
// and dataless token messages are 8 bytes in size ...; data messages
// include this 8 byte header and 64 bytes of data."
const (
	ControlBytes = 8
	DataBytes    = ControlBytes + BlockSize // 72
)

// Kind enumerates every message type used by the four protocols. Keeping
// them in one enum lets the network and statistics layers stay
// protocol-agnostic.
type Kind uint8

const (
	KindInvalid Kind = iota

	// Transient/ordinary requests (all protocols).
	KindGetS // request read permission
	KindGetM // request write permission

	// Responses and token carriers.
	KindData       // data (+ tokens for Token Coherence)
	KindDataShared // data granting read-only (directory/hammer/snooping)
	KindTokens     // dataless token transfer (Token Coherence)
	KindAck        // invalidation acknowledgment / probe ack
	KindInv        // invalidation (directory)
	KindFwdGetS    // forwarded GetS (directory)
	KindFwdGetM    // forwarded GetM (directory)

	// Writebacks.
	KindPutM      // writeback of owned/modified data
	KindPutS      // clean eviction notice (directory variants; unused by some)
	KindWBAck     // writeback acknowledgment
	KindWBStale   // writeback arrived stale; drop without writing
	KindUnblock   // transaction-complete notification to home
	KindMemData   // data from memory (hammer: parallel DRAM fetch)
	KindProbe     // broadcast probe (hammer)
	KindProbeAck  // probe miss acknowledgment (hammer)
	KindProbeData // probe hit: data to requester (hammer)

	// Persistent requests (Token Coherence correctness substrate).
	KindPersistentReq           // starving processor -> home arbiter
	KindPersistentActivate      // arbiter -> all nodes
	KindPersistentActivateAck   // node -> arbiter
	KindPersistentDeactivate    // arbiter -> all nodes
	KindPersistentDeactivateAck // node -> arbiter

	// Hierarchical coherence (two-level directory authority tier).
	KindAuthReq   // cluster home -> global authority: request block authority
	KindAuthGrant // global authority -> cluster home: authority + current data
	KindRecall    // global authority -> holding cluster home: give authority back
	KindRecallAck // cluster home -> global authority: authority + data returned
)

func (k Kind) String() string {
	switch k {
	case KindGetS:
		return "GetS"
	case KindGetM:
		return "GetM"
	case KindData:
		return "Data"
	case KindDataShared:
		return "DataShared"
	case KindTokens:
		return "Tokens"
	case KindAck:
		return "Ack"
	case KindInv:
		return "Inv"
	case KindFwdGetS:
		return "FwdGetS"
	case KindFwdGetM:
		return "FwdGetM"
	case KindPutM:
		return "PutM"
	case KindPutS:
		return "PutS"
	case KindWBAck:
		return "WBAck"
	case KindWBStale:
		return "WBStale"
	case KindUnblock:
		return "Unblock"
	case KindMemData:
		return "MemData"
	case KindProbe:
		return "Probe"
	case KindProbeAck:
		return "ProbeAck"
	case KindProbeData:
		return "ProbeData"
	case KindPersistentReq:
		return "PersistentReq"
	case KindPersistentActivate:
		return "PersistentActivate"
	case KindPersistentActivateAck:
		return "PersistentActivateAck"
	case KindPersistentDeactivate:
		return "PersistentDeactivate"
	case KindPersistentDeactivateAck:
		return "PersistentDeactivateAck"
	case KindAuthReq:
		return "AuthReq"
	case KindAuthGrant:
		return "AuthGrant"
	case KindRecall:
		return "Recall"
	case KindRecallAck:
		return "RecallAck"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Category classifies messages for the traffic breakdowns in Figures 4b
// and 5b.
type Category uint8

const (
	// CatRequest covers first-issue transient requests, directory
	// requests, forwarded requests and invalidations.
	CatRequest Category = iota
	// CatReissue covers reissued transient requests and all persistent
	// request machinery (Token Coherence only).
	CatReissue
	// CatControl covers other non-data messages: acknowledgments,
	// dataless token transfers, unblocks, writeback acks.
	CatControl
	// CatData covers data responses and writebacks.
	CatData
	numCategories = 4
)

// NumCategories is the number of traffic categories.
const NumCategories = int(numCategories)

func (c Category) String() string {
	switch c {
	case CatRequest:
		return "requests"
	case CatReissue:
		return "reissues+persistent"
	case CatControl:
		return "other-control"
	case CatData:
		return "data"
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// Slug returns the category's identifier-safe short name, used to build
// per-category metric names like "bytes_request".
func (c Category) Slug() string {
	switch c {
	case CatRequest:
		return "request"
	case CatReissue:
		return "reissue"
	case CatControl:
		return "control"
	case CatData:
		return "data"
	}
	return fmt.Sprintf("category%d", uint8(c))
}

// Message is one coherence message. A message is owned by the network
// from Send/Multicast until delivery; each destination receives its own
// copy and may mutate it freely during Handle. The network recycles the
// copy when the handler returns unless the handler called Retain, which
// transfers ownership to the retainer (who frees it when done).
type Message struct {
	Kind Kind
	Cat  Category
	Src  Port
	Dst  Port
	Addr Addr

	// Requester is the port that should receive the eventual response
	// (used by forwarded requests, probes and persistent activations).
	Requester Port

	// Tokens and Owner implement the token-counting substrate: Tokens is
	// the number of tokens carried (including the owner token when Owner
	// is set). Non-token protocols leave these zero.
	Tokens int
	Owner  bool

	// HasData marks a 72-byte message carrying the cache block.
	HasData bool
	// Data is the block payload, modelled as a write-version number so
	// the safety oracle can detect stale reads.
	Data uint64

	// Acks is the number of acknowledgments the requester must collect
	// (directory protocol), or a generic small counter.
	Acks int

	// Dirty marks data that has been modified relative to memory, so
	// migratory-sharing grants can be detected by the receiver.
	Dirty bool

	// Seq carries a protocol-defined sequence number (persistent request
	// identifiers, snooping order tags in tests).
	Seq uint64

	// Pool bookkeeping (see Pool): free-list link, receiver-retention
	// mark, and a double-free guard.
	next     *Message
	retained bool
	pooled   bool
}

// Retain marks a delivered message as kept by its receiver: the network
// will not recycle it when the handler returns. The retainer owns the
// message afterwards and should hand it to Pool.Put (via the network's
// FreeMessage) once done with it. Retain returns m for call-site
// convenience.
func (m *Message) Retain() *Message {
	m.retained = true
	return m
}

// Pool is a free list of Message objects. The simulator allocates every
// hot-path message from a pool and recycles it when its receiver is done,
// so steady-state simulation creates no per-message garbage. A Pool is
// single-threaded, like the kernel whose network owns it.
type Pool struct {
	free *Message
}

// Get returns a zeroed message from the pool, allocating if empty.
func (p *Pool) Get() *Message {
	m := p.free
	if m == nil {
		return &Message{}
	}
	p.free = m.next
	*m = Message{}
	return m
}

// Put recycles a message. Putting the same message twice panics: it
// always indicates an ownership bug. The message is poisoned on the way
// in, so a use after free surfaces as loudly wrong values instead of
// silently stale ones.
func (p *Pool) Put(m *Message) {
	if m.pooled {
		panic("msg: message freed twice")
	}
	*m = Message{
		Kind: Kind(0xEE), Cat: Category(0xEE),
		Addr: ^Addr(0), Tokens: -1 << 20, Acks: -1 << 20,
		Data: ^uint64(0), Seq: ^uint64(0),
	}
	m.pooled = true
	m.retained = false
	m.next = p.free
	p.free = m
}

// Clone returns a pooled copy of m with fresh pool bookkeeping.
func (p *Pool) Clone(m *Message) *Message {
	c := p.Get()
	*c = *m
	c.next, c.retained, c.pooled = nil, false, false
	return c
}

// Release is what the network calls after a handler returns: recycle the
// message unless the handler retained it, in which case ownership has
// transferred to the retainer.
func (p *Pool) Release(m *Message) {
	if m.retained {
		m.retained = false
		return
	}
	p.Put(m)
}

// Bytes reports the wire size of the message.
func (m *Message) Bytes() int {
	if m.HasData {
		return DataBytes
	}
	return ControlBytes
}

func (m *Message) String() string {
	s := fmt.Sprintf("%v %v->%v blk=%d", m.Kind, m.Src, m.Dst, BlockOf(m.Addr))
	if m.Tokens > 0 {
		s += fmt.Sprintf(" tok=%d", m.Tokens)
		if m.Owner {
			s += "+O"
		}
	}
	if m.HasData {
		s += fmt.Sprintf(" data=v%d", m.Data)
	}
	return s
}
