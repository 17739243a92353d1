// Package msg defines the message model of the store-and-forward scheme:
// submessages (the original point-to-point payloads, each a (source,
// destination, data) triple), messages (the direct frames exchanged between
// VPT neighbors, each carrying a list of submessages), and the per-stage
// forward buffers fwbuf[d][x] of Algorithm 1.
package msg

import (
	"fmt"
	"slices"
)

// Submessage is an original point-to-point payload travelling through the
// VPT: the data rank Src wants delivered to rank Dst. Intermediate processes
// never inspect Data; they only read Dst to pick the forwarding stage.
type Submessage struct {
	Src  int
	Dst  int
	Data []byte
}

// Message is one direct frame communicated between a pair of neighboring
// processes in some stage: an ordered list of submessages.
type Message struct {
	From int
	To   int
	Subs []Submessage
}

// ForwardBuffers is the fwbuf structure of Algorithm 1: fwbuf[d][x] holds
// the submessages that will be forwarded in stage d to the dimension-d
// neighbor whose digit d equals x. Buffers are indexed by dimension then by
// digit value.
type ForwardBuffers struct {
	buf [][][]Submessage // [d][x][i]
}

// NewForwardBuffers allocates empty buffers for a topology with the given
// dimension sizes: the [d][x] rows share one backing array, and dims is
// not kept.
func NewForwardBuffers(dims []int) *ForwardBuffers {
	n := 0
	for _, k := range dims {
		n += k
	}
	rows := make([][]Submessage, n)
	fb := &ForwardBuffers{buf: make([][][]Submessage, len(dims))}
	for d, k := range dims {
		fb.buf[d], rows = rows[:k:k], rows[k:]
	}
	return fb
}

// Put appends a submessage to fwbuf[d][x].
func (fb *ForwardBuffers) Put(d, x int, s Submessage) {
	fb.buf[d][x] = append(fb.buf[d][x], s)
}

// Take removes and returns the contents of fwbuf[d][x]. It returns nil when
// the buffer is empty. After a buffer has been used for communication in
// stage d it is never refilled (Algorithm 1's single-pass discipline), which
// Take enforces by leaving the slot empty.
func (fb *ForwardBuffers) Take(d, x int) []Submessage {
	s := fb.buf[d][x]
	fb.buf[d][x] = nil
	return s
}

// SubCount returns the number of submessages currently stored.
func (fb *ForwardBuffers) SubCount() int {
	n := 0
	for d := range fb.buf {
		for x := range fb.buf[d] {
			n += len(fb.buf[d][x])
		}
	}
	return n
}

// SortSubs orders submessages deterministically (by Src then Dst). The
// algorithm does not require any order; the learning run sorts every frame
// it sends with it, which makes this the order of every frame's
// submessages, and exchanges return their deliveries in it.
func SortSubs(subs []Submessage) {
	slices.SortFunc(subs, func(a, b Submessage) int {
		if a.Src != b.Src {
			return a.Src - b.Src
		}
		return a.Dst - b.Dst
	})
}

// CompactSubs copies every submessage payload into one fresh contiguous
// arena, rebinding Data in place. Engines that deliver payloads aliasing
// pooled (recyclable) frame buffers call it before releasing the frames, so
// the delivered result outlives the arena buffers it was decoded from. One
// allocation regardless of submessage count.
func CompactSubs(subs []Submessage) {
	total := 0
	for _, s := range subs {
		total += len(s.Data)
	}
	if total == 0 {
		return
	}
	arena := make([]byte, 0, total)
	for i := range subs {
		if len(subs[i].Data) == 0 {
			continue
		}
		start := len(arena)
		arena = append(arena, subs[i].Data...)
		subs[i].Data = arena[start:len(arena):len(arena)]
	}
}

// Validate performs basic sanity checks on a frame against a world size.
func (m *Message) Validate(worldSize int) error {
	if m.From < 0 || m.From >= worldSize || m.To < 0 || m.To >= worldSize {
		return fmt.Errorf("msg: frame endpoints (%d -> %d) out of range [0,%d)", m.From, m.To, worldSize)
	}
	for _, s := range m.Subs {
		if s.Src < 0 || s.Src >= worldSize || s.Dst < 0 || s.Dst >= worldSize {
			return fmt.Errorf("msg: submessage endpoints (%d -> %d) out of range [0,%d)", s.Src, s.Dst, worldSize)
		}
	}
	return nil
}
