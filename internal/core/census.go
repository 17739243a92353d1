package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"stfw/internal/msg"
	"stfw/internal/runtime"
	"stfw/internal/vpt"
)

// Announcement ops: the first byte of a census announcement, followed by
// the pair's payload size as a little-endian uint32 (0 for a removal).
const (
	annAdd byte = iota
	annRemove
	annResize
	annLen = 5
)

// Census is the sparse dynamic-discovery census: route under the census
// tags, carrying one announcement per mutated pair instead of a payload.
// own lists the calling rank's mutations, each with Src the rank: at most
// one removal and one addition per destination, where both resize the
// pair. Every rank gets back the PatchDelta of every announced pair whose
// dimension-ordered route touches it, as origin, forwarder or destination,
// which is exactly what Persistent.Patch on that rank needs; its Pairs are
// sorted by (Src, Dst), a removal before an addition, whatever order the
// frames land in.
//
// Each pair rides as one 5-byte announcement — op (annAdd, annRemove or
// annResize), then the size — so a resize is one submessage like any other
// pair, and the census's frames follow every rule of route's: ascending
// (src, dst) slots, arrival-order receives, the misroute checks and the
// traffic hint. own is validated before any frame is sent. Census is
// collective: every rank of the world must call it, with possibly empty
// own lists. It costs one frame per neighbor per stage, the message count
// of a data exchange.
func Census(c runtime.Comm, t *vpt.Topology, own []PatchPair) (*PatchDelta, error) {
	me, K := c.Rank(), t.Size()
	var anns map[int][]byte
	if len(own) > 0 {
		anns = make(map[int][]byte, len(own))
	}
	arena := make([]byte, annLen*len(own))
	for i, pr := range own {
		switch {
		case pr.Src != me:
			return nil, fmt.Errorf("core: census: rank %d announces pair %d->%d of another rank", me, pr.Src, pr.Dst)
		case pr.Dst < 0 || pr.Dst >= K:
			return nil, fmt.Errorf("core: census: rank %d: destination %d out of range", me, pr.Dst)
		case !pr.Remove && pr.Size < 0:
			return nil, fmt.Errorf("core: census: rank %d: destination %d announced with negative size %d", me, pr.Dst, pr.Size)
		}
		// A destination's first mutation takes a record of the arena; a
		// second of the other kind turns it into a resize.
		b, seen := anns[pr.Dst]
		switch {
		case !seen:
			b = arena[annLen*i : annLen*(i+1) : annLen*(i+1)]
			b[0] = annAdd
			if pr.Remove {
				b[0] = annRemove
			}
		case b[0] == annResize || pr.Remove == (b[0] == annRemove):
			return nil, fmt.Errorf("core: census: rank %d: destination %d announced twice", me, pr.Dst)
		default:
			b[0] = annResize
		}
		if !pr.Remove {
			binary.LittleEndian.PutUint32(b[1:], uint32(pr.Size))
		}
		anns[pr.Dst] = b
	}

	out := &PatchDelta{}
	_, err := route(c, t, censusTagBase, anns, func(sub msg.Submessage) error {
		b := sub.Data
		if len(b) != annLen || b[0] > annResize {
			return fmt.Errorf("pair %d->%d: malformed announcement %x", sub.Src, sub.Dst, b)
		}
		size := int(binary.LittleEndian.Uint32(b[1:]))
		if b[0] != annAdd {
			out.Pairs = append(out.Pairs, PatchPair{Src: sub.Src, Dst: sub.Dst, Remove: true})
		}
		if b[0] != annRemove {
			out.Pairs = append(out.Pairs, PatchPair{Src: sub.Src, Dst: sub.Dst, Size: size})
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	slices.SortFunc(out.Pairs, cmpPatchPair)
	return out, nil
}

// cmpPatchPair orders mutations by (Src, Dst), a removal before an
// addition of the same pair.
func cmpPatchPair(a, b PatchPair) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	switch {
	case a.Remove == b.Remove:
		return 0
	case a.Remove:
		return -1
	}
	return 1
}
