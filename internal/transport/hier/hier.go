// Package hier implements a hierarchical composite transport: one
// runtime.Comm multiplexer over two sub-transports, an "inner" one carrying
// intra-node traffic (typically chanpt's in-process matcher) and an "outer"
// one carrying inter-node traffic (typically udpnet or tcpnet). The paper's
// virtual process topology makes the split natural: stage d of the
// store-and-forward exchange only talks to dimension-d neighbors, so when
// the rank→node placement aligns the node boundary with a digit split of
// the VPT (see Plan), every inner-dimension stage runs entirely over shared
// memory and only the outer dimensions touch the wire.
//
// Node pairs ride their leader link. A frame between ranks a and b travels
// on the inner sub-transport exactly when NodeOf(a) == NodeOf(b). Any
// other frame crosses nodes, and unless both nodes hold one rank each it
// travels on the node pair's leader link: from the outer endpoint of the
// sending node's lowest rank to the outer endpoint of the receiving node's
// lowest rank, behind a 16-byte mux header naming source, destination and
// tag (leader.go). A pair of one-rank nodes is sent natively on the outer
// link of the pair itself, which already names it, so a world of
// single-rank nodes routes exactly as a bare outer world. The rule is total
// (stage tags, census tags, the direct tag and any future traffic all route
// the same way) and it preserves the Comm contract's per-(sender,
// receiver, tag) FIFO: a fixed pair always uses one route, a leader link is
// FIFO, and the node's demux delivers in arrival order. The stage→dimension
// metadata in the traffic hint (runtime.StageTraffic.Dim, from the
// dimension every core.Replay stage carries) is what ties stages to
// sub-transports: the planner picks the factorization and placement so
// each dimension's pairs fall wholly on one side, and the traffic-hint
// fan-out forwards each stage's entries to the endpoint that carries them.
//
// Goroutines: one demux per node, started by the node's first receive from
// a leader-routed sender, owns its leader endpoint's mux-tag receives and
// exits when that endpoint fails — closing the outer world is what stops
// it. The demux then fails every receive of its node, and every later
// leader-routed Send from it, with a cause naming the node and its leader.
// Leader links need an outer sub-transport whose Send is safe for
// concurrent use (the runtime.Comm contract): every rank of a node sends on
// its leader's endpoint. An outer transport with a bounded mailbox
// (chanpt) may hold a leader-routed Send until the receiving node first
// receives from a leader-routed sender and so starts its demux.
//
// The optional runtime extensions compose across the mux:
//
//   - AnyReceiver: RecvAnyOf arbitrates across the rank's inner, outer and
//     leader-link endpoints when the candidate senders span them — a
//     puller goroutine per side feeds a small arrival stash, and the caller
//     takes the earliest arrival (see recv.go). Candidates confined to one
//     side delegate directly, preserving that side's native arrival order
//     at zero overhead (the planner-aligned steady state).
//   - SendRetainer: the mux retains payloads when either sub-transport
//     does, the conservative answer engines need for buffer reuse. A
//     retaining mux owns every payload from Send on: a route that retains
//     hands it on, and a route that copies (a copying outer sub, or the
//     leader link, which copies behind its mux header) recycles it into
//     the msg arena once the sub's Send returns.
//   - TrafficHinter: hints fan out to the rank's inner and outer endpoints,
//     filtered by the same rule the data plane routes by; leader-routed
//     entries go to neither (see HintTraffic).
//   - LinkStatsSource: per-link wire snapshots of the rank's own two
//     endpoints merge (runtime.LinkStats.Add), so telemetry attribution
//     survives the mux; a leader's outer rows are its node's leader links.
//
// Construction checks tag-space safety: a sub-transport that reserves
// control tags (runtime.TagReserver — udpnet's wire barrier) must reserve
// them outside the application tag span, otherwise an application frame
// routed over that sub-transport could alias a control frame.
package hier

import (
	"fmt"
	"sort"
	"sync"

	"stfw/internal/msg"
	"stfw/internal/runtime"
)

// DefaultAppTagCeiling bounds the application tag span assumed when the
// Config does not declare one: every exchange-path tag (stage, census,
// direct — see core.AppTagSpan) lies far below it, and reserved transport
// control tags (udpnet's) lie far above.
const DefaultAppTagCeiling = 1 << 20

// Config assembles a composite world from two fully-built sub-worlds.
type Config struct {
	// Inner carries intra-node pairs; one endpoint per rank, index = rank,
	// spanning the full world size (the pair routing rule guarantees only
	// same-node pairs ever use it).
	Inner []runtime.Comm
	// Outer carries inter-node pairs (and the world barrier); same shape.
	// A node's leader-routed frames all travel on its lowest rank's
	// endpoint, so its Send must be safe for concurrent use.
	Outer []runtime.Comm
	// NodeOf maps a rank to its node; pairs with equal nodes route inner.
	NodeOf func(rank int) int
	// AppTagLo/AppTagHi declare the half-open tag span application traffic
	// may use; both zero selects [0, DefaultAppTagCeiling). New fails if a
	// sub-transport reserves control tags inside the span.
	AppTagLo, AppTagHi int
}

// World is the composite world: one mux endpoint per rank.
type World struct {
	size  int
	comms []runtime.Comm
}

// New validates the configuration and builds the mux endpoints. The
// sub-worlds are not owned: closing them (and their sockets) stays the
// caller's responsibility, in reverse construction order. A node's demux
// goroutine exits once its leader's outer endpoint fails, which closing
// the outer world causes.
func New(cfg Config) (*World, error) {
	size := len(cfg.Inner)
	if size == 0 {
		return nil, fmt.Errorf("hier: empty inner world")
	}
	if len(cfg.Outer) != size {
		return nil, fmt.Errorf("hier: inner world has %d ranks, outer has %d", size, len(cfg.Outer))
	}
	if cfg.NodeOf == nil {
		return nil, fmt.Errorf("hier: NodeOf is required")
	}
	appLo, appHi := cfg.AppTagLo, cfg.AppTagHi
	if appLo == 0 && appHi == 0 {
		appLo, appHi = 0, DefaultAppTagCeiling
	}
	if appLo >= appHi {
		return nil, fmt.Errorf("hier: empty application tag span [%#x,%#x)", appLo, appHi)
	}
	for r := 0; r < size; r++ {
		for _, s := range []struct {
			side string
			sub  runtime.Comm
		}{{"inner", cfg.Inner[r]}, {"outer", cfg.Outer[r]}} {
			side, sub := s.side, s.sub
			if sub == nil {
				return nil, fmt.Errorf("hier: rank %d has no %s endpoint", r, side)
			}
			if sub.Rank() != r || sub.Size() != size {
				return nil, fmt.Errorf("hier: rank %d %s endpoint reports rank %d of %d, want %d of %d",
					r, side, sub.Rank(), sub.Size(), r, size)
			}
			if lo, hi, ok := runtime.ReservedTagsOf(sub); ok && lo < appHi && appLo < hi {
				return nil, fmt.Errorf("hier: rank %d %s sub-transport reserves control tags [%#x,%#x), inside the application span [%#x,%#x)",
					r, side, lo, hi, appLo, appHi)
			}
		}
	}
	nodes := buildNodes(cfg, appLo)
	w := &World{size: size, comms: make([]runtime.Comm, size)}
	for r := 0; r < size; r++ {
		n := nodes[r]
		c := &comm{
			rank:  r,
			size:  size,
			n:     n,
			nodes: nodes,
			inner: cfg.Inner[r],
			outer: cfg.Outer[r],
		}
		if rx := n.rx[r]; rx != nil {
			c.lead = &leaderComm{rank: r, n: n, rx: rx}
		}
		c.retains = runtime.SendRetains(c.inner) || runtime.SendRetains(c.outer)
		c.cond = sync.NewCond(&c.mu)
		w.comms[r] = c
	}
	return w, nil
}

// buildNodes groups the ranks by NodeOf, names each node's leader (its
// lowest rank) and, where leader routing is in use, each node's remote
// leaders and each rank's matcher. Mux frames travel under tag, a tag of
// the application span: New has checked that no sub-transport reserves it.
func buildNodes(cfg Config, tag int) []*node {
	size := len(cfg.Inner)
	byID := map[int]*node{}
	var order []*node
	nodes := make([]*node, size)
	for r := 0; r < size; r++ {
		id := cfg.NodeOf(r)
		n := byID[id]
		if n == nil {
			n = &node{id: id, leader: r, link: cfg.Outer[r], tag: tag, nodes: nodes}
			n.retains = runtime.SendRetains(n.link)
			byID[id] = n
			order = append(order, n)
		}
		n.ranks++
		nodes[r] = n
	}
	rx := make([]*runtime.Matcher, size)
	for _, n := range order {
		n.rx = rx
		for _, p := range order {
			if p != n && (p.ranks > 1 || n.ranks > 1) {
				n.peers = append(n.peers, p.leader)
			}
		}
	}
	for r, n := range nodes {
		if len(n.peers) > 0 {
			rx[r] = runtime.NewMatcher(size, 0)
		}
	}
	return nodes
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comms returns one mux endpoint per rank, index = rank.
func (w *World) Comms() []runtime.Comm { return w.comms }

// Run executes fn on every rank of this world.
func (w *World) Run(fn runtime.RankFunc) error { return runtime.Run(w.comms, fn) }

// comm is one rank's mux endpoint.
type comm struct {
	rank, size int
	n          *node   // this rank's node
	nodes      []*node // every rank's node
	inner      runtime.Comm
	outer      runtime.Comm
	// lead is the rank's leader-link endpoint (leader.go); nil when no
	// pair of the rank is leader-routed.
	lead    runtime.Comm
	retains bool

	// Cross-sub arbitration state (recv.go): arrived-but-unclaimed frames
	// and the outstanding puller goroutines feeding them.
	mu    sync.Mutex
	cond  *sync.Cond
	stash []arrival
	pulls []*pull

	// Hint fan-out cache: a repeated HintTraffic with the same backing
	// slice re-forwards the same split slices, so sub-transports that dedup
	// by pointer (udpnet) see a no-op too.
	lastHintPtr *runtime.StageTraffic
	lastHintLen int
	hintInner   []runtime.StageTraffic
	hintOuter   []runtime.StageTraffic
}

func (c *comm) Rank() int { return c.rank }
func (c *comm) Size() int { return c.size }

// sub returns the sub endpoint that carries the pair (c.rank, peer): the
// inner one on the same node, the rank's own outer one between two
// single-rank nodes — that link already names the pair — and the leader
// link otherwise.
func (c *comm) sub(peer int) runtime.Comm {
	p := c.nodes[peer]
	switch {
	case p == c.n:
		return c.inner
	case p.ranks == 1 && c.n.ranks == 1:
		return c.outer
	}
	return c.lead
}

// SendRetains reports whether a payload handed to Send may stay referenced:
// true when either sub-transport retains (the route is per-destination, so
// only the union answer is safe for a caller that reuses buffers). The
// answer is also the ownership rule: a caller told true gives the payload
// up, so Send recycles it itself on a route that copies — the leader link
// (whose leaderComm answers false) or a copying outer sub.
func (c *comm) SendRetains() bool { return c.retains }

func (c *comm) Send(to, tag int, payload []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("hier: send to rank %d out of range [0,%d)", to, c.size)
	}
	sub := c.sub(to)
	err := sub.Send(to, tag, payload)
	if c.retains && !runtime.SendRetains(sub) {
		msg.PutFrame(payload)
	}
	return err
}

// Barrier delegates to the rank's own outer endpoint, which spans all
// ranks (a world barrier on either side is a world barrier; the outer one
// is chosen so multi-process worlds synchronize over the wire).
func (c *comm) Barrier() error { return c.outer.Barrier() }

// ReservedTags implements runtime.TagReserver for the mux itself: the
// union of the sub-transports' reservations, as the smallest half-open
// span covering both. Without this, nesting one hier world inside another
// (hier-of-hier topologies) would hide the leaves' control tags from the
// outer mux's collision check — the inner mux is just another Comm there,
// and a non-reserving Comm is assumed tag-clean. Reservations sit far
// above the application ceiling, so covering the gap between two disjoint
// claims over-approximates harmlessly. lo >= hi (here 0, 0) means neither
// sub reserves.
func (c *comm) ReservedTags() (lo, hi int) {
	iLo, iHi, iOK := runtime.ReservedTagsOf(c.inner)
	oLo, oHi, oOK := runtime.ReservedTagsOf(c.outer)
	switch {
	case iOK && oOK:
		return min(iLo, oLo), max(iHi, oHi)
	case iOK:
		return iLo, iHi
	case oOK:
		return oLo, oHi
	}
	return 0, 0
}

// HintTraffic implements runtime.TrafficHinter: each stage's per-peer
// entries are filtered by route and forwarded to the sub-transport
// endpoint that will actually carry them, preserving the stage's Tag and
// Dim. Under a planner-aligned placement every stage lands wholly on the
// sub-transport owning its dimension; a misaligned placement splits a
// stage's entries but stays correct — each side still sees exactly the
// frames it will carry. Leader-routed entries are forwarded nowhere: this
// rank's outer endpoint does not carry them, and the leader link carries
// the whole node's frames under one tag, which no one rank's hint
// describes.
func (c *comm) HintTraffic(stages []runtime.StageTraffic) {
	if len(stages) == 0 {
		return
	}
	if c.lastHintPtr != &stages[0] || c.lastHintLen != len(stages) {
		c.hintInner = c.splitHint(stages, c.inner)
		c.hintOuter = c.splitHint(stages, c.outer)
		c.lastHintPtr, c.lastHintLen = &stages[0], len(stages)
	}
	runtime.HintTraffic(c.inner, c.hintInner)
	runtime.HintTraffic(c.outer, c.hintOuter)
}

// splitHint projects a traffic summary onto one sub endpoint, dropping
// stages with no traffic there and entries naming no rank of the world.
func (c *comm) splitHint(stages []runtime.StageTraffic, side runtime.Comm) []runtime.StageTraffic {
	on := func(peer int) bool { return peer >= 0 && peer < c.size && c.sub(peer) == side }
	var out []runtime.StageTraffic
	for _, st := range stages {
		f := runtime.StageTraffic{Tag: st.Tag, Dim: st.Dim}
		for _, pt := range st.Sends {
			if on(pt.Peer) {
				f.Sends = append(f.Sends, pt)
			}
		}
		for _, pt := range st.Recvs {
			if on(pt.Peer) {
				f.Recvs = append(f.Recvs, pt)
			}
		}
		if len(f.Sends) > 0 || len(f.Recvs) > 0 {
			out = append(out, f)
		}
	}
	return out
}

// LinkStats implements runtime.LinkStatsSource: the union of the rank's
// own two endpoints' per-link snapshots, folded per peer so a link that
// saw traffic on both sides (possible only under a placement change
// between snapshots) still reports one row. A leader's outer endpoint is
// its node's leader link, so the leader reports every frame of its node
// pairs with Peer set to the remote leader, and the other ranks' outer
// endpoints report what they carried themselves.
func (c *comm) LinkStats() []runtime.LinkStats {
	byPeer := make(map[int]runtime.LinkStats)
	for _, side := range [2]runtime.Comm{c.inner, c.outer} {
		for _, ls := range runtime.LinkStatsOf(side) {
			got, ok := byPeer[ls.Peer]
			if !ok {
				byPeer[ls.Peer] = ls
				continue
			}
			got.Add(ls)
			byPeer[ls.Peer] = got
		}
	}
	if len(byPeer) == 0 {
		return nil
	}
	out := make([]runtime.LinkStats, 0, len(byPeer))
	for _, ls := range byPeer {
		out = append(out, ls)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}
