// Package collectives implements the classic regular collective operations
// the paper positions its work against (Section 7): barrier, broadcast,
// allgather, reduce-scatter, allreduce and all-to-all, built on the same
// runtime.Comm substrate as the store-and-forward scheme. They use the
// standard algorithms (binomial tree, ring, pairwise exchange, and one
// radix-4 reduce/broadcast tree under the barrier and the allreduce) so the
// repository contains the collective baseline an MPI distribution would
// offer, and so applications have the reductions they need: the power
// iteration in internal/iterative, and its CG solver under the BL
// exchange. Under STFW, CG's dot products ride the exchange's own stage
// frames (spmv.Session.MultiplySum) and send nothing through this package.
//
// All operations are collective: every rank of the communicator must call
// them with compatible arguments, in the same order.
//
// Tags. Every collective owns a block of tags disjoint from every other
// collective's, from the exchange's (core.AppTagSpan) and from the
// transports' control tags (runtime.TagReserver); TagSpan returns the span
// they all lie in. The tree collectives (Barrier, the allreduce family)
// take one tag per tree level, so a frame can only match the level it was
// sent on. Bcast, AllgatherDoubles, Alltoall and Gather take one tag
// each: within one call every frame between a given pair of ranks is
// either the only one or sent and received in the same order, and two
// back-to-back calls are kept apart by the per-pair FIFO order every
// transport guarantees.
//
// Allreduce wire format and buffer ownership. There is one allreduce,
// AllreduceInPlace; Allreduce, AllreduceScalar and ReduceScatterDoubles
// copy into and out of it. A frame is the vector's words and nothing else:
// len(vec) little-endian IEEE-754 doubles. A receiver checks the frame's
// length against its own vector and trusts nothing more (a frame of any
// other length, the one-byte poison frame of treeReduce included, is a
// mismatch). Every send buffer comes from the msg frame pool and has
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

	tagBarrier   = 0x4342                   // + level
	tagBcast     = tagBarrier + maxRounds   // each rank receives once, from its parent
	tagAllgather = tagBcast + 1             // ring: always the same neighbour, in order
	tagAllreduce = tagAllgather + 1         // + level
	tagAlltoall  = tagAllreduce + maxRounds // every round pairs a rank with a different peer
	tagGather    = tagAlltoall + 1          // one frame per rank, all to the root
	tagEnd       = tagGather + 1
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

// Bcast distributes root's buffer to every rank using a binomial tree:
// non-roots receive once, then forward to lg K - level children. It returns
// the broadcast payload (root's own buf on the root).
func Bcast(c runtime.Comm, root int, buf []byte) ([]byte, error) {
	K := c.Size()
	if root < 0 || root >= K {
		return nil, fmt.Errorf("collectives: bcast root %d out of range", root)
	}
	// Rotate ranks so the root is virtual rank 0.
	vrank := (c.Rank() - root + K) % K
	data := buf
	if vrank != 0 {
		// Receive from parent: clear lowest set bit.
		parent := (vrank&(vrank-1) + root) % K
		var err error
		data, err = c.Recv(parent, tagBcast)
		if err != nil {
			return nil, fmt.Errorf("collectives: bcast recv: %w", err)
		}
	}
	// Forward to children: set bits above the lowest set bit of vrank. A
	// retaining transport hands the receiver the slice itself, so each
	// child gets a pooled copy of its own and data stays this rank's.
	low := vrank & (-vrank)
	if vrank == 0 {
		low = 1 << uint(bitsLen(K))
	}
	retains := runtime.SendRetains(c)
	for d := low >> 1; d > 0; d >>= 1 {
		child := vrank | d
		if child != vrank && child < K {
			out := data
			if retains {
				out = append(msg.GetFrameCap(len(data)), data...)
			}
			if err := c.Send((child+root)%K, tagBcast, out); err != nil {
				return nil, fmt.Errorf("collectives: bcast send: %w", err)
			}
		}
	}
	return data, nil
}

// bitsLen returns the number of bits needed to represent v-1 (ceil lg v).
func bitsLen(v int) int {
	n := 0
	for 1<<uint(n) < v {
		n++
	}
	return n
}

// AllgatherDoubles gathers one float64 slice from every rank into a
// [][]float64 indexed by rank, using the ring algorithm (works for any K;
// K-1 rounds, one message per rank per round — bandwidth-optimal).
func AllgatherDoubles(c runtime.Comm, mine []float64) ([][]float64, error) {
	K := c.Size()
	me := c.Rank()
	out := make([][]float64, K)
	out[me] = mine
	cur := mine
	curOwner := me
	right := (me + 1) % K
	left := (me - 1 + K) % K
	for round := 0; round < K-1; round++ {
		if err := c.Send(right, tagAllgather, encodeOwned(curOwner, cur)); err != nil {
			return nil, fmt.Errorf("collectives: allgather send: %w", err)
		}
		raw, err := c.Recv(left, tagAllgather)
		if err != nil {
			return nil, fmt.Errorf("collectives: allgather recv: %w", err)
		}
		owner, vals, err := decodeOwned(raw)
		if err != nil {
			return nil, err
		}
		if owner < 0 || owner >= K || out[owner] != nil && owner != me {
			return nil, fmt.Errorf("collectives: allgather duplicate segment from rank %d", owner)
		}
		out[owner] = vals
		cur, curOwner = vals, owner
	}
	return out, nil
}

func encodeOwned(owner int, vals []float64) []byte {
	buf := make([]byte, 0, 4+8*len(vals))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(owner))
	for _, v := range vals {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func decodeOwned(raw []byte) (int, []float64, error) {
	if len(raw) < 4 || (len(raw)-4)%8 != 0 {
		return 0, nil, fmt.Errorf("collectives: malformed segment (%d bytes)", len(raw))
	}
	owner := int(binary.LittleEndian.Uint32(raw))
	vals := make([]float64, (len(raw)-4)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[4+8*i:]))
	}
	return owner, vals, nil
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

// Allreduce is AllreduceInPlace on a copy of vec, which it returns.
func Allreduce(c runtime.Comm, vec []float64, op Op) ([]float64, error) {
	acc := append([]float64(nil), vec...)
	if err := AllreduceInPlace(c, acc, op); err != nil {
		return nil, err
	}
	return acc, nil
}

// AllreduceScalar reduces a single value across all ranks.
func AllreduceScalar(c runtime.Comm, v float64, op Op) (float64, error) {
	acc := [1]float64{v}
	err := AllreduceInPlace(c, acc[:], op)
	return acc[0], err
}

// Alltoall performs a dense personalized exchange: sendbuf[j] goes to rank
// j, and the returned slice holds recvbuf[i] = what rank i sent to this
// rank. It uses direct pairwise exchange in K-1 balanced rounds (the
// XOR/shift schedule), the dense counterpart of the paper's sparse
// exchange.
func Alltoall(c runtime.Comm, sendbuf [][]byte) ([][]byte, error) {
	K := c.Size()
	me := c.Rank()
	if len(sendbuf) != K {
		return nil, fmt.Errorf("collectives: alltoall sendbuf has %d entries for K=%d", len(sendbuf), K)
	}
	recv := make([][]byte, K)
	recv[me] = sendbuf[me]
	for round := 0; round < K; round++ {
		var peer int
		if K&(K-1) == 0 {
			peer = me ^ round // perfectly balanced pairwise schedule
		} else {
			// Pair ranks so a+b = round (mod K): symmetric and, over all
			// rounds 0..K-1, covers every ordered pair exactly once.
			peer = (round - me%K + K) % K
		}
		if peer == me {
			continue
		}
		if err := c.Send(peer, tagAlltoall, sendbuf[peer]); err != nil {
			return nil, fmt.Errorf("collectives: alltoall send round %d: %w", round, err)
		}
		raw, err := c.Recv(peer, tagAlltoall)
		if err != nil {
			return nil, fmt.Errorf("collectives: alltoall recv round %d: %w", round, err)
		}
		recv[peer] = raw
	}
	return recv, nil
}

// Gather collects one byte slice from every rank at the root (returned
// slice indexed by rank on the root, nil elsewhere), using direct sends —
// the inverse of Bcast's fan-out is rarely latency-critical at the sizes
// the solver uses, and root-side aggregation keeps it simple.
func Gather(c runtime.Comm, root int, mine []byte) ([][]byte, error) {
	K := c.Size()
	if root < 0 || root >= K {
		return nil, fmt.Errorf("collectives: gather root %d out of range", root)
	}
	me := c.Rank()
	if me != root {
		return nil, c.Send(root, tagGather, mine)
	}
	out := make([][]byte, K)
	out[root] = mine
	for r := 0; r < K; r++ {
		if r == root {
			continue
		}
		raw, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, fmt.Errorf("collectives: gather recv from %d: %w", r, err)
		}
		out[r] = raw
	}
	return out, nil
}

// ReduceScatterDoubles reduces the vectors elementwise and leaves each rank
// with its block of the result: rank r gets elements [r*len/K, (r+1)*len/K)
// of the reduction. It is an allreduce and a local slice, correct for any K.
func ReduceScatterDoubles(c runtime.Comm, vec []float64, op Op) ([]float64, error) {
	full, err := Allreduce(c, vec, op)
	if err != nil {
		return nil, err
	}
	lo := c.Rank() * len(full) / c.Size()
	hi := (c.Rank() + 1) * len(full) / c.Size()
	return full[lo:hi:hi], nil
}
