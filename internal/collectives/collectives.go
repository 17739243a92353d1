// Package collectives is the tree reduction under the BL exchange: an
// allreduce (AllreduceInPlace, AllreduceScalar) and a barrier, both one
// radix-4 reduce/broadcast walk over runtime.Comm. spmv.Session.MultiplySum
// folds CG's dot products through it after a BL exchange, the one exchange
// that cannot carry a sum lane. An STFW session's exchange, compiled from
// its first multiply on, carries the lane in its own stage frames
// (core.Replay.RunSum) and sends nothing through this package.
//
// All operations are collective: every rank of the communicator must call
// them with compatible arguments, in the same order.
//
// Tags. Barrier and the allreduce each own a block of tags, one tag per
// tree level, so a frame can only match the level it was sent on. The two
// blocks are disjoint from each other, from the exchange's
// (core.AppTagSpan) and from the transports' control tags
// (runtime.TagReserver); TagSpan returns the span they lie in.
//
// Allreduce wire format and buffer ownership. There is one allreduce,
// AllreduceInPlace; AllreduceScalar copies into and out of it. A frame is
// the vector's words and nothing else: len(vec) little-endian IEEE-754
// doubles. A receiver checks the frame's length against its own vector and
// trusts nothing more (a frame of any other length, the one-byte poison
// frame of treeReduce included, is a mismatch). Every send buffer comes from the msg frame pool and has
// exactly one owner at a time: when runtime.SendRetains(c) is true the
// transport hands the slice itself to the receiving rank, which releases
// it; otherwise the transport has copied the bytes when Send returns and
// the sender releases it. Every received frame goes back with msg.PutFrame
// once its words are folded in. In steady state an allreduce allocates
// nothing of its own.
//
// Identical results. Solvers branch on reduced values (converged or not,
// SPD or not) and every rank must take the same branch, so AllreduceInPlace
// leaves bit-identical words on every rank, for any K: rank 0 computes the
// last fold and every other rank copies its words. A parent folds its
// children in rank order, not arrival order, so the bits are also the same
// from run to run. That the words are *the* reduction, independent of K
// and of the tree's shape, needs op to be commutative and associative (see
// Op).
package collectives

import (
	"encoding/binary"
	"fmt"
	"math"

	"stfw/internal/msg"
	"stfw/internal/runtime"
)

// Tag blocks, one per collective. maxRounds bounds the levels of the
// reduce tree: ceil(log4 K) < 64 for any K an int can hold.
const (
	maxRounds = 64

	tagBarrier   = 0x4342                 // + level
	tagAllreduce = tagBarrier + maxRounds // + level
	tagEnd       = tagAllreduce + maxRounds
)

// TagSpan returns the half-open tag range [lo, hi) the collectives send
// and receive on. Applications sharing a communicator with them keep their
// own tags outside it.
func TagSpan() (lo, hi int) { return tagBarrier, tagEnd }

// Barrier synchronizes all ranks: the reduce/broadcast walk of
// AllreduceInPlace with zero words, 2(K-1) empty frames world-wide. No rank
// hears from rank 0 before rank 0 has heard, through the tree, from all.
func Barrier(c runtime.Comm) error {
	if err := treeReduce(c, tagBarrier, nil, nil); err != nil {
		return fmt.Errorf("collectives: barrier: %w", err)
	}
	return nil
}

// Op is a reduction operator over float64. It must be commutative and
// associative: the allreduce folds ranks together subtree by subtree (a
// parent's own words, then its children's at stride 1, then at stride 4,
// ...), a grouping that depends on K and on the tree's radix, so only such
// an op has one result to speak of. Floating-point addition is commutative
// but only approximately associative; the sum a K-rank world returns is
// one valid rounding of it, the same on every rank and in every run, bit
// for bit.
type Op func(a, b float64) float64

// Sum, Max and Min are the standard reduction operators.
var (
	Sum Op = func(a, b float64) float64 { return a + b }
	Max Op = math.Max
	Min Op = math.Min
)

// AllreduceInPlace reduces vec elementwise across all ranks and leaves the
// full result in vec on every rank, bit-identical everywhere. All ranks
// must pass equal-length vectors; if any two disagree, every rank returns
// an error and none blocks.
//
// The ranks form one tree on their base-4 digits, rooted at 0. At level l
// (stride s = 4^l) a rank whose digits below l are zero either folds in
// its children me+s, me+2s, me+3s (those below K), in that order, or - its
// own digit l being d > 0 - sends what it has accumulated to its parent
// me-d*s and waits there for the result; after ceil(log4 K) levels rank 0
// holds the reduction, and it goes back down the same edges, highest level
// first. K-1 frames up and K-1 down, for any K.
func AllreduceInPlace(c runtime.Comm, vec []float64, op Op) error {
	if err := treeReduce(c, tagAllreduce, vec, op); err != nil {
		return fmt.Errorf("collectives: allreduce: %w", err)
	}
	return nil
}

// radix is the tree's fan-out. It is a constant, not an option: the saving
// is the 2(K-1) frames, which every radix has (EXPERIMENTS.md); 4 keeps the
// serial fan-in at 3 and the depth at lg K for K=64.
const radix = 4

// treeReduce is the walk behind AllreduceInPlace and Barrier; level l uses
// tag+l in both directions. A rank that receives a frame of the wrong
// length keeps its place in the walk and passes on a poison frame instead
// of its words, first up and then down, so the mismatch reaches rank 0 and
// from there every rank: none is left waiting on a rank that gave up.
func treeReduce(c runtime.Comm, tag int, vec []float64, op Op) error {
	K, me := c.Size(), c.Rank()
	retains := runtime.SendRetains(c)
	ok := true
	level, s := 0, 1
	for ; s < K && me/s%radix == 0; level, s = level+1, s*radix {
		for child := me + s; child < me+radix*s && child < K; child += s {
			if err := recvWords(c, child, tag+level, vec, op, &ok); err != nil {
				return err
			}
		}
	}
	if me != 0 {
		parent := me - me/s%radix*s
		if err := sendWords(c, parent, tag+level, vec, retains, ok); err != nil {
			return err
		}
		if err := recvWords(c, parent, tag+level, vec, nil, &ok); err != nil {
			return err
		}
	}
	for level > 0 {
		level, s = level-1, s/radix
		for child := me + s; child < me+radix*s && child < K; child += s {
			if err := sendWords(c, child, tag+level, vec, retains, ok); err != nil {
				return err
			}
		}
	}
	if !ok {
		return fmt.Errorf("length mismatch: some rank's vector is not this rank's %d words", len(vec))
	}
	return nil
}

// poisonLen is the length of a poison frame: not a multiple of 8, so no
// vector has it and every receiver takes it for a mismatch in turn.
const poisonLen = 1

// sendWords sends vec's words (a poison frame when !ok) to rank to in a
// pooled frame and releases the frame unless the transport passed it on to
// the receiver.
func sendWords(c runtime.Comm, to, tag int, vec []float64, retains, ok bool) error {
	n := 8 * len(vec)
	if !ok {
		n, vec = poisonLen, nil
	}
	buf := msg.GetFrameLen(n)
	for i, v := range vec {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	err := c.Send(to, tag, buf)
	if !retains {
		msg.PutFrame(buf)
	}
	if err != nil {
		return fmt.Errorf("send to %d: %w", to, err)
	}
	return nil
}

// recvWords receives one frame from rank from, folds its words into vec as
// op's right operand (replaces vec when op is nil) and releases the frame.
// A frame that is not len(vec) words clears *ok and leaves vec alone.
func recvWords(c runtime.Comm, from, tag int, vec []float64, op Op, ok *bool) error {
	raw, err := c.Recv(from, tag)
	if err != nil {
		return fmt.Errorf("recv from %d: %w", from, err)
	}
	defer msg.PutFrame(raw)
	if len(raw) != 8*len(vec) {
		*ok = false
		return nil
	}
	for i := range vec {
		theirs := math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if op == nil {
			vec[i] = theirs
		} else {
			vec[i] = op(vec[i], theirs)
		}
	}
	return nil
}

// AllreduceScalar reduces a single value across all ranks.
func AllreduceScalar(c runtime.Comm, v float64, op Op) (float64, error) {
	acc := [1]float64{v}
	err := AllreduceInPlace(c, acc[:], op)
	return acc[0], err
}
