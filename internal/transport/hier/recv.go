package hier

// Cross-sub-transport receive arbitration. A rank receives on one of three
// sub endpoints, by the sender's route: its inner endpoint, its own outer
// endpoint (a native pair of single-rank nodes), or its leader-link
// endpoint (leader.go), whose matcher the node's demux feeds. A RecvAnyOf
// whose candidate senders all route to one sub endpoint delegates to that
// endpoint's own matcher — the steady state under a planner-aligned
// placement, where every stage's senders live on one side. When candidates
// span sides the mux cannot block in any one alone, so it arbitrates:
//
//   - a puller goroutine per side issues the blocking sub-receive for the
//     candidates that side owns, deposits the result in the rank's arrival
//     stash, and exits;
//   - the calling rank waits on the stash and takes the earliest deposited
//     match.
//
// A puller retrieves exactly one frame and terminates: its candidate set is
// a subset of the stage's still-outstanding senders, each of which owes
// exactly one frame under the tag, so the sub-receive always completes
// within the stage. Outstanding pullers are tracked so later receives
// neither double-pull a sender (two pullers racing for one frame) nor
// bypass the stash while a puller could steal their frame. The rank's own
// goroutine only ever blocks in cond.Wait or inside a sub-transport receive
// with the mux lock released — the lock guards stash/pull bookkeeping only,
// never a blocking call (the lockedsend analyzer checks this).

import (
	"fmt"

	"stfw/internal/runtime"
)

// arrival is one frame (or sub-transport error) deposited by a puller and
// not yet claimed by the rank's receive loop.
type arrival struct {
	from    int
	tag     int
	payload []byte
	err     error
}

// pull is one outstanding puller goroutine: the sub-transport it blocks in
// and the candidate senders it may retrieve a frame from.
type pull struct {
	sub     runtime.Comm
	tag     int
	senders []int
}

func (p *pull) covers(from int) bool {
	for _, s := range p.senders {
		if s == from {
			return true
		}
	}
	return false
}

// wait blocks on the arbitration condition until a puller deposits.
func (c *comm) wait() { c.cond.Wait() }

// soleSub returns the single sub endpoint owning every candidate, or false
// when they span sides.
func (c *comm) soleSub(from []int) (runtime.Comm, bool) {
	sub := c.sub(from[0])
	for _, f := range from[1:] {
		if c.sub(f) != sub {
			return nil, false
		}
	}
	return sub, true
}

// tagQuiet reports whether no outstanding pull on the given sub-transport
// uses the tag — the condition under which a direct sub-receive cannot race
// a puller for the same frames.
func (c *comm) tagQuiet(tag int, sub runtime.Comm) bool {
	for _, p := range c.pulls {
		if p.tag == tag && p.sub == sub {
			return false
		}
	}
	return true
}

// takeLocked claims the earliest stashed arrival matching the tag and one
// of the candidate senders. Sub-transport errors deposited under the tag
// are claimed regardless of sender — the failure concerns the whole world,
// not one link.
func (c *comm) takeLocked(tag int, from []int) (int, []byte, bool, error) {
	for i := range c.stash {
		a := &c.stash[i]
		if a.tag != tag {
			continue
		}
		if a.err != nil {
			err := a.err
			sender := a.from
			c.stash = append(c.stash[:i], c.stash[i+1:]...)
			return sender, nil, true, err
		}
		for _, f := range from {
			if f == a.from {
				sender, payload := a.from, a.payload
				c.stash = append(c.stash[:i], c.stash[i+1:]...)
				return sender, payload, true, nil
			}
		}
	}
	return -1, nil, false, nil
}

// launchLocked starts a puller per side for the candidates not already
// covered by an outstanding same-tag pull on their side.
func (c *comm) launchLocked(tag int, from []int) {
	var need [3][]int // inner, outer, leader link
	sides := [3]runtime.Comm{c.inner, c.outer, c.lead}
cand:
	for _, f := range from {
		sub := c.sub(f)
		for _, p := range c.pulls {
			if p.tag == tag && p.sub == sub && p.covers(f) {
				continue cand
			}
		}
		for i := range sides {
			if sides[i] == sub {
				need[i] = append(need[i], f)
				break
			}
		}
	}
	for i, senders := range need {
		if len(senders) > 0 {
			c.startPullLocked(sides[i], tag, senders)
		}
	}
}

// startPullLocked registers and launches one puller. The blocking
// sub-receive runs outside the mux lock; the deposit re-acquires it.
func (c *comm) startPullLocked(sub runtime.Comm, tag int, senders []int) {
	p := &pull{sub: sub, tag: tag, senders: senders}
	c.pulls = append(c.pulls, p)
	go func() {
		from, payload, err := runtime.RecvAnyOf(sub, tag, senders)
		c.mu.Lock()
		for i, q := range c.pulls {
			if q == p {
				c.pulls = append(c.pulls[:i], c.pulls[i+1:]...)
				break
			}
		}
		c.stash = append(c.stash, arrival{from: from, tag: tag, payload: payload, err: err})
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
}

// RecvAnyOf implements runtime.AnyReceiver across the mux.
func (c *comm) RecvAnyOf(tag int, from []int) (int, []byte, error) {
	if len(from) == 0 {
		return -1, nil, fmt.Errorf("hier: rank %d RecvAnyOf with no candidate senders", c.rank)
	}
	for _, f := range from {
		if f < 0 || f >= c.size {
			return -1, nil, fmt.Errorf("hier: recv from rank %d out of range [0,%d)", f, c.size)
		}
	}
	c.mu.Lock()
	if sender, payload, ok, err := c.takeLocked(tag, from); ok {
		c.mu.Unlock()
		return sender, payload, err
	}
	if sub, ok := c.soleSub(from); ok && c.tagQuiet(tag, sub) {
		// Fast path: every candidate on one side and no puller to race —
		// the sub-matcher's native arrival order applies directly.
		c.mu.Unlock()
		return runtime.RecvAnyOf(sub, tag, from)
	}
	defer c.mu.Unlock()
	for {
		c.launchLocked(tag, from)
		c.wait()
		if sender, payload, ok, err := c.takeLocked(tag, from); ok {
			return sender, payload, err
		}
	}
}

// Recv blocks for the exact (from, tag) frame. When an outstanding puller
// could retrieve that frame the receive is served through the stash;
// otherwise it goes straight to the owning sub-transport.
func (c *comm) Recv(from, tag int) ([]byte, error) {
	if from < 0 || from >= c.size {
		return nil, fmt.Errorf("hier: recv from rank %d out of range [0,%d)", from, c.size)
	}
	sub := c.sub(from)
	c.mu.Lock()
	for {
		for i := range c.stash {
			a := &c.stash[i]
			if a.tag != tag {
				continue
			}
			if a.err == nil && a.from != from {
				continue
			}
			payload, err := a.payload, a.err
			c.stash = append(c.stash[:i], c.stash[i+1:]...)
			c.mu.Unlock()
			return payload, err
		}
		covered := false
		for _, p := range c.pulls {
			if p.tag == tag && p.sub == sub && p.covers(from) {
				covered = true
				break
			}
		}
		if !covered {
			c.mu.Unlock()
			return sub.Recv(from, tag)
		}
		c.wait()
	}
}
