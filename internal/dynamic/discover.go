// Package dynamic implements sparse dynamic data exchange for the
// store-and-forward runtime: discovering changed communicants without a
// full relearn, in the spirit of the NBX algorithm (Hoefler et al.) and its
// locality-aware descendants (Geyko et al., "A More Scalable Sparse Dynamic
// Data Exchange"). True NBX needs synchronous nonblocking sends and a
// nonblocking barrier, neither of which the blocking Comm abstraction
// offers — and the paper this repo reproduces argues the stronger point
// that *regularizing* irregular communication beats speculative probing.
// Discover therefore runs the census the same way the data plane runs
// payloads: announcements ride the exact dimension-ordered store-and-
// forward routes their future payloads will take, one (possibly empty)
// frame to every dimension-d neighbor per stage, so receive counts are
// deterministic and no probing, cancellation, or consensus round is needed.
// Every rank on a pair's route — origin, forwarders, destination — learns
// of the mutation in n stages, which is exactly the set of ranks whose
// learned layout the mutation dirties: the census output is, per rank, the
// core.PatchDelta that Persistent.Patch consumes.
package dynamic

import (
	"encoding/binary"
	"fmt"

	"stfw/internal/core"
	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// Announce declares one new or resized payload pair originating at the
// calling rank: Size payload bytes per iteration, destined for Dst.
type Announce struct {
	Dst  int
	Size int
}

// Delta is one rank's local view of a pattern mutation: destinations it
// will start (or resume, with a new size) sending to, and destinations it
// will stop sending to. Removing and adding the same destination resizes
// it. The zero Delta is valid: a rank with no local changes still
// participates in the collective census and learns about transiting pairs.
type Delta struct {
	Add    []Announce
	Remove []int
}

// Announcement wire format: a 5-byte submessage payload, op byte (0 add,
// 1 remove) followed by the little-endian uint32 payload size.
const annLen = 5

func decodeAnnouncement(b []byte) (remove bool, size int, err error) {
	if len(b) != annLen {
		return false, 0, fmt.Errorf("dynamic: announcement has %d bytes, want %d", len(b), annLen)
	}
	switch b[0] {
	case 0:
	case 1:
		remove = true
	default:
		return false, 0, fmt.Errorf("dynamic: announcement op %d unknown", b[0])
	}
	return remove, int(binary.LittleEndian.Uint32(b[1:])), nil
}

// Discover runs the sparse dynamic-discovery census: a collective,
// regularized announcement exchange over the topology's stages. Every rank
// contributes its local Delta; every rank receives back the PatchDelta of
// all pairs — its own and other ranks' — whose store-and-forward route
// transits it. The returned delta is exactly what Persistent.Patch on this
// rank needs, and the union of all ranks' returns covers every mutation
// exactly once per route hop.
//
// The census uses its own tag range (core.CensusTag), so it can interleave
// with payload exchanges on the same communicator. It is collective: every
// rank of the world must call it, with possibly empty deltas. Cost is one
// frame per neighbor per stage — the same regular message count as a data
// exchange, but with 5-byte announcements instead of payloads.
func Discover(c runtime.Comm, t *vpt.Topology, delta Delta) (*core.PatchDelta, error) {
	me := c.Rank()
	if t.Size() != c.Size() {
		return nil, fmt.Errorf("dynamic: topology size %d != communicator size %d", t.Size(), c.Size())
	}

	out := &core.PatchDelta{}
	fb := msg.NewForwardBuffers(t.Dims())
	// ann is one arena for all of this rank's announcements, annLen bytes
	// each.
	ann := make([]byte, annLen*(len(delta.Remove)+len(delta.Add)))
	seed := func(dst, size int, remove bool, seen map[int]bool) error {
		if dst < 0 || dst >= t.Size() {
			return fmt.Errorf("dynamic: rank %d: destination %d out of range", me, dst)
		}
		if seen[dst] {
			return fmt.Errorf("dynamic: rank %d: destination %d announced twice", me, dst)
		}
		seen[dst] = true
		out.Pairs = append(out.Pairs, core.PatchPair{Src: me, Dst: dst, Size: size, Remove: remove})
		if dst != me {
			b := ann[:annLen:annLen]
			ann = ann[annLen:]
			if remove {
				b[0] = 1
			}
			binary.LittleEndian.PutUint32(b[1:], uint32(size))
			d := t.FirstDiff(me, dst)
			fb.Put(d, t.Digit(dst, d), msg.Submessage{Src: me, Dst: dst, Data: b})
		}
		return nil
	}
	seenRm := make(map[int]bool, len(delta.Remove))
	for _, dst := range delta.Remove {
		if err := seed(dst, 0, true, seenRm); err != nil {
			return nil, err
		}
	}
	seenAdd := make(map[int]bool, len(delta.Add))
	for _, a := range delta.Add {
		if a.Size < 0 {
			return nil, fmt.Errorf("dynamic: rank %d: destination %d announced with negative size %d", me, a.Dst, a.Size)
		}
		if err := seed(a.Dst, a.Size, false, seenAdd); err != nil {
			return nil, err
		}
	}

	// The census stage loop mirrors the ordered exchange discipline: one
	// frame to every dimension-d neighbor in digit order (empty when no
	// announcement routes through it), then one frame from each of them.
	// Announcements scatter into later-stage buffers exactly like payload
	// submessages — the route *is* the payload's future route.
	//
	// A stage's frames are encoded into one arena, each frame a capped
	// slice of it: census frames are a few dozen bytes, where a pooled
	// buffer per frame costs more than it saves. A retaining transport
	// hands each received frame over as a piece of its sender's arena, which
	// goes with that arena; a copying transport hands over a buffer of its
	// own, recycled when the census ends — the announcements forwarded from
	// it alias it until then.
	recycle := !runtime.SendRetains(c)
	width, nbrs := 0, 0
	for d := 0; d < t.N(); d++ {
		width = max(width, t.Dim(d))
		nbrs += t.Dim(d) - 1
	}
	var received [][]byte
	if recycle {
		received = make([][]byte, 0, nbrs)
		defer func() {
			for _, b := range received {
				msg.PutFrame(b)
			}
		}()
	}
	outs := make([][]msg.Submessage, width)
	var in msg.Message
	for d := 0; d < t.N(); d++ {
		tag := core.CensusTag(d)
		myDigit := t.Digit(me, d)
		size := 0
		for x := 0; x < t.Dim(d); x++ {
			if x != myDigit {
				outs[x] = fb.Take(d, x)
				size += msg.EncodedSize(&msg.Message{Subs: outs[x]})
			}
		}
		arena := make([]byte, 0, size)
		for x := 0; x < t.Dim(d); x++ {
			if x == myDigit {
				continue
			}
			nbr := t.WithDigit(me, d, x)
			start := len(arena)
			arena = msg.Encode(arena, &msg.Message{From: me, To: nbr, Subs: outs[x]})
			if err := c.Send(nbr, tag, arena[start:len(arena):len(arena)]); err != nil {
				return nil, fmt.Errorf("dynamic: rank %d census stage %d send to %d: %w", me, d, nbr, err)
			}
		}
		for x := 0; x < t.Dim(d); x++ {
			if x == myDigit {
				continue
			}
			nbr := t.WithDigit(me, d, x)
			raw, err := c.Recv(nbr, tag)
			if err != nil {
				return nil, fmt.Errorf("dynamic: rank %d census stage %d recv from %d: %w", me, d, nbr, err)
			}
			if recycle {
				received = append(received, raw)
			}
			if err := msg.DecodeInto(&in, raw); err != nil {
				return nil, fmt.Errorf("dynamic: rank %d census stage %d frame from %d: %w", me, d, nbr, err)
			}
			if in.From != nbr || in.To != me {
				return nil, fmt.Errorf("dynamic: rank %d census stage %d: frame claims %d->%d, transport says %d->%d",
					me, d, in.From, in.To, nbr, me)
			}
			for _, sub := range in.Subs {
				remove, size, err := decodeAnnouncement(sub.Data)
				if err != nil {
					return nil, fmt.Errorf("dynamic: rank %d census stage %d: pair %d->%d: %w", me, d, sub.Src, sub.Dst, err)
				}
				out.Pairs = append(out.Pairs, core.PatchPair{Src: sub.Src, Dst: sub.Dst, Size: size, Remove: remove})
				if sub.Dst == me {
					continue
				}
				c2 := t.NextDiff(me, sub.Dst, d)
				if c2 < 0 {
					return nil, fmt.Errorf("dynamic: rank %d census stage %d: announcement for %d cannot be forwarded", me, d, sub.Dst)
				}
				fb.Put(c2, t.Digit(sub.Dst, c2), sub)
			}
		}
	}
	if left := fb.SubCount(); left != 0 {
		return nil, fmt.Errorf("dynamic: rank %d: %d announcements left undelivered", me, left)
	}
	return out, nil
}
