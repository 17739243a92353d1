package hier

// Leader links. Every cross-node frame whose two nodes are not both
// single-rank travels between the two nodes' leaders (each node's lowest
// rank): the sending rank wraps it in a mux header and calls Send on the
// outer endpoint of its own node's leader, and the receiving node's demux
// goroutine — the only reader of its leader endpoint's mux traffic —
// unwraps it into the destination rank's hier-owned matcher. A node pair
// then rides one outer link, whatever its rank count, so a wire transport
// that coalesces the frames of one link (udpnet packs consecutive frames
// into shared datagrams and batches datagrams through sendmmsg) sees the
// whole pair's traffic at once instead of one frame per rank pair.
//
// FIFO per (sender, receiver, tag) survives the detour: a rank's sends to
// one remote rank are sequential Sends on one leader link, the link is
// FIFO, and the demux pushes frames into the matchers in arrival order.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"stfw/internal/msg"
	"stfw/internal/runtime"
)

// muxHeaderLen is the mux header's length: src rank, dst rank, tag and a
// reserved 0, four little-endian int32s. Sixteen bytes keep a payload that
// is 8-byte aligned in its own buffer aligned behind the header, as the
// msg frame and submessage headers do.
const muxHeaderLen = 16

// node is one node's share of the leader routing: its leader's outer
// endpoint, the remote leaders it exchanges mux frames with, and the
// matchers its demux feeds.
type node struct {
	id     int // the NodeOf value
	leader int // lowest rank on the node
	ranks  int
	// link is the leader's outer endpoint: every rank of the node sends its
	// leader-routed frames on it, and the demux receives on it.
	link    runtime.Comm
	retains bool // runtime.SendRetains(link)
	// tag is the transport tag of mux frames on the leader links. A leader
	// link carries nothing but mux frames (and a transport's own control
	// traffic), so any tag clear of the outer sub-transport's reservation
	// serves; New picks one inside the checked application span.
	tag int
	// peers lists the leaders of the remote nodes this node exchanges mux
	// frames with; empty when every pair of the node is native or inner.
	peers []int
	// nodes maps every rank of the world to its node; rx[r] is rank r's
	// matcher for leader-routed frames (nil where r's node has no peers).
	nodes []*node
	rx    []*runtime.Matcher

	start sync.Once
	dead  atomic.Pointer[error] // set once the demux failed
}

// leaderComm is one rank's endpoint onto its node's leader links, the
// third sub endpoint next to the rank's inner and outer ones: Send wraps
// the frame and sends it on the leader's outer endpoint, and the receives
// read the rank's own matcher, which the node's demux feeds.
type leaderComm struct {
	rank int
	n    *node
	rx   *runtime.Matcher
}

func (l *leaderComm) Rank() int { return l.rank }
func (l *leaderComm) Size() int { return len(l.n.nodes) }

func (l *leaderComm) Send(to, tag int, payload []byte) error {
	return l.n.send(l.rank, to, tag, payload)
}

func (l *leaderComm) Recv(from, tag int) ([]byte, error) {
	l.n.startDemux()
	payload, err := l.rx.Recv(from, tag)
	if err != nil {
		return nil, fmt.Errorf("hier: rank %d recv from %d: %w", l.rank, from, err)
	}
	return payload, nil
}

// RecvAnyOf implements runtime.AnyReceiver on the rank's matcher.
func (l *leaderComm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	l.n.startDemux()
	sender, payload, err := l.rx.RecvAnyOf(tag, from)
	if err != nil {
		return -1, nil, fmt.Errorf("hier: rank %d recv any of %v: %w", l.rank, from, err)
	}
	return sender, payload, nil
}

// SendRetains reports false: send copies the frame behind its mux header,
// so the payload is free again when Send returns — and a retaining mux,
// which owns it, recycles it then.
func (l *leaderComm) SendRetains() bool { return false }

// Barrier is never called: the mux synchronizes on the rank's own outer
// endpoint.
func (l *leaderComm) Barrier() error {
	return errors.New("hier: a leader-link endpoint has no barrier")
}

// startDemux starts the node's demux goroutine on the first receive that
// needs it. A node whose ranks never receive a leader-routed frame runs
// none; frames sent to it wait on its leader endpoint meanwhile.
func (n *node) startDemux() { n.start.Do(func() { go n.demux() }) }

// failed returns the cause the node's leader link failed with, or nil.
func (n *node) failed() error {
	if p := n.dead.Load(); p != nil {
		return *p
	}
	return nil
}

// demux owns the leader endpoint's mux-tag receives: it moves each frame
// into its destination rank's matcher until the endpoint fails, then
// fails the node.
func (n *node) demux() {
	for {
		from, raw, err := runtime.RecvAnyOf(n.link, n.tag, n.peers)
		if err == nil {
			err = n.deliver(from, raw)
		}
		if err != nil {
			n.fail(err)
			return
		}
	}
}

// deliver checks one mux frame from remote leader `from` and pushes its
// payload into the destination rank's matcher.
func (n *node) deliver(from int, raw []byte) error {
	src, dst, tag, err := readMuxHeader(raw)
	switch {
	case err != nil:
	case src < 0 || src >= len(n.nodes) || n.nodes[src].leader != from || n.nodes[src] == n:
		err = fmt.Errorf("source rank %d does not send through leader %d", src, from)
	case dst < 0 || dst >= len(n.nodes) || n.nodes[dst] != n:
		err = fmt.Errorf("destination rank %d is not on node %d", dst, n.id)
	}
	if err != nil {
		msg.PutFrame(raw)
		return fmt.Errorf("mux frame from leader %d: %w", from, err)
	}
	payload := unwrap(raw)
	if err := n.rx[dst].Push(src, tag, payload); err != nil {
		msg.PutFrame(payload)
		return err
	}
	return nil
}

// fail records why the node's leader link died and closes every matcher
// of the node with that cause, so receives blocked there — and later
// leader-routed Sends from the node — return it instead of hanging.
func (n *node) fail(err error) {
	cause := fmt.Errorf("hier: node %d (leader rank %d) leader link failed: %w", n.id, n.leader, err)
	n.dead.CompareAndSwap(nil, &cause)
	cause = n.failed()
	for r, m := range n.rx {
		if m != nil && n.nodes[r] == n {
			m.Close(cause)
		}
	}
}

// send wraps one frame of rank `from` in a mux header and sends it on the
// leader link to dst's node. The header buffer is the mux's own: released
// here unless the leader's sub-transport retains it. payload is only read:
// the caller keeps it, and a retaining mux recycles it after this returns
// (comm.Send).
func (n *node) send(from, to, tag int, payload []byte) error {
	if err := n.failed(); err != nil {
		return err
	}
	if tag != int(int32(tag)) {
		return fmt.Errorf("hier: rank %d send to %d: tag %d does not fit the mux header", from, to, tag)
	}
	buf := msg.GetFrameLen(muxHeaderLen + len(payload))
	putMuxHeader(buf, from, to, tag)
	copy(buf[muxHeaderLen:], payload)
	err := n.link.Send(n.nodes[to].leader, n.tag, buf)
	if !n.retains {
		msg.PutFrame(buf)
	}
	if err != nil {
		return fmt.Errorf("hier: rank %d send to %d over leader link %d->%d: %w", from, to, n.leader, n.nodes[to].leader, err)
	}
	return nil
}

func putMuxHeader(b []byte, src, dst, tag int) {
	binary.LittleEndian.PutUint32(b[0:], uint32(src))
	binary.LittleEndian.PutUint32(b[4:], uint32(dst))
	binary.LittleEndian.PutUint32(b[8:], uint32(tag))
	binary.LittleEndian.PutUint32(b[12:], 0)
}

func readMuxHeader(b []byte) (src, dst, tag int, err error) {
	if len(b) < muxHeaderLen {
		return 0, 0, 0, fmt.Errorf("%d bytes, shorter than the mux header", len(b))
	}
	if r := binary.LittleEndian.Uint32(b[12:]); r != 0 {
		return 0, 0, 0, fmt.Errorf("mux header reserved word %#x, want 0", r)
	}
	word := func(i int) int { return int(int32(binary.LittleEndian.Uint32(b[i:]))) }
	return word(0), word(4), word(8), nil
}

// unwrap moves a mux frame's payload into a pooled frame of its own length
// and recycles the frame. Handing on the frame's buffer cut past the header
// would shrink it out of its pool size class — the receiver's PutFrame
// would file it one class down — so every frame would drain its class and
// cost the next receive an allocation.
func unwrap(raw []byte) []byte {
	out := msg.GetFrameLen(len(raw) - muxHeaderLen)
	copy(out, raw[muxHeaderLen:])
	msg.PutFrame(raw)
	return out
}
