package spmv

import (
	"fmt"
	"time"

	"stfw/internal/collectives"
	"stfw/internal/core"
	"stfw/internal/partition"
	"stfw/internal/runtime"
	"stfw/internal/sparse"
	"stfw/internal/telemetry"
)

// Session is a per-rank handle for repeated SpMV with the same matrix,
// partition and communication pattern — the iterative-solver case.
//
// A session is a fully indexed iteration program: the owned CSR rows are
// remapped once onto a contiguous [own | halo] local vector, and the
// exchange is a core.Replay that gathers payload floats straight from x
// and scatters deliveries straight into the halo tail. A steady-state
// Multiply performs no map lookups and no allocations. The exchange
// compiles at session creation, STFW's from the frame layout
// core.ComputePersistent computes out of the replicated pattern, so every
// multiply, the first included, runs the compiled replay.
//
// Create one Session per rank inside the rank function and reuse it
// across iterations.
type Session struct {
	c       runtime.Comm
	a       *sparse.CSR
	opt     Options
	ownRows []int    // rows this rank owns, ascending
	prog    *program // compiled iteration
	tm      PhaseTimings
	tel     *telemetry.Rank // live collector for this rank; nil when disabled
}

// NewSession validates the configuration against the world and compiles the
// per-rank iteration program, exchange included. It sends nothing.
func NewSession(c runtime.Comm, a *sparse.CSR, part *partition.Partition, pat *Pattern, opt Options) (*Session, error) {
	if part.K != c.Size() {
		return nil, fmt.Errorf("spmv: partition K=%d != communicator size %d", part.K, c.Size())
	}
	if pat.K != c.Size() {
		return nil, fmt.Errorf("spmv: pattern K=%d != communicator size %d", pat.K, c.Size())
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spmv: matrix must be square")
	}
	if opt.Method != STFW && opt.Method != BL {
		return nil, fmt.Errorf("spmv: unknown method %v", opt.Method)
	}
	if opt.Method == STFW {
		if opt.Topo == nil {
			return nil, fmt.Errorf("spmv: STFW requires a topology")
		}
		if opt.Topo.Size() != c.Size() {
			return nil, fmt.Errorf("spmv: topology size %d != communicator size %d", opt.Topo.Size(), c.Size())
		}
	}
	s := &Session{c: c, a: a, opt: opt}
	me := c.Rank()
	s.tel = opt.Telemetry.Rank(me)
	for i := 0; i < a.Rows; i++ {
		if int(part.Part[i]) == me {
			s.ownRows = append(s.ownRows, i)
		}
	}
	prog, err := compileProgram(me, a, part, pat, s.ownRows)
	if err != nil {
		return nil, err
	}
	s.prog = prog
	var r *core.Replay
	if opt.Method == BL {
		srcWords := make(map[int]int, len(pat.RecvIdx[me]))
		for src, lst := range pat.RecvIdx[me] {
			srcWords[src] = len(lst)
		}
		r, err = core.NewDirectReplay(me, c.Size(), a.Cols, pat.SendIdx[me], srcWords)
	} else {
		// The layout a learning run would record, computed from the pattern.
		var layout *core.Persistent
		layout, err = core.ComputePersistent(opt.Topo, me, func(src, dst int) (int, bool) {
			lst, ok := pat.SendIdx[src][dst]
			return 8 * len(lst), ok
		})
		if err == nil {
			r, err = layout.Compile(a.Cols, pat.SendIdx[me])
		}
	}
	if err != nil {
		return nil, err
	}
	if r.HaloWords() != prog.haloWords {
		return nil, fmt.Errorf("spmv: rank %d: exchange delivers %d halo words, kernel expects %d",
			me, r.HaloWords(), prog.haloWords)
	}
	r.Instrument(s.tel)
	prog.replay = r
	return s, nil
}

// Multiply computes y = A*x for this rank's owned rows (other entries of
// the returned vector are zero): gather, exchange, then the kernel over the
// program's row-length runs. In the steady state it touches no maps and
// allocates nothing. Collective across all ranks that share the session
// configuration.
//
// The returned slice is owned by the session and overwritten by the next
// Multiply; copy it to keep it across iterations. Multiply is MultiplySum
// with no lane.
func (s *Session) Multiply(x []float64) ([]float64, error) {
	return s.MultiplySum(x, nil)
}

// MultiplySum is Multiply whose exchange also sums sum across the world:
// on return every rank holds the same bits, the world total of every word.
// An STFW exchange carries the words in its stage frames
// (core.Replay.RunSum), so the reduction sends no message of its own. A BL
// exchange cannot carry a lane and is followed by
// collectives.AllreduceInPlace instead. Every rank must pass a lane of the
// same length. In the steady state it allocates nothing.
func (s *Session) MultiplySum(x, sum []float64) ([]float64, error) {
	if len(x) != s.a.Cols {
		return nil, fmt.Errorf("spmv: x length %d != cols %d", len(x), s.a.Cols)
	}
	p := s.prog
	t0 := time.Now()
	own := p.xloc[:len(p.gatherIdx)]
	for i, g := range p.gatherIdx {
		own[i] = x[g]
	}
	t1 := time.Now()
	var err error
	if s.opt.Method == STFW {
		err = p.replay.RunSum(s.c, x, p.xloc[p.nOwn:], sum)
	} else if err = p.replay.Run(s.c, x, p.xloc[p.nOwn:]); err == nil && sum != nil {
		err = collectives.AllreduceInPlace(s.c, sum, collectives.Sum)
	}
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	p.kernel()
	t3 := time.Now()
	s.tm.Gather += t1.Sub(t0)
	s.tm.Exchange += t2.Sub(t1)
	s.tm.Kernel += t3.Sub(t2)
	s.tm.Iters++
	if s.tel.Sampled() {
		// The same clock reads feed the trace and Timings, so they agree.
		// Only a traced exchange gets the phases around it, so a sampled
		// multiply's spans are complete and the others leave none.
		s.tel.SpanBetween(telemetry.KGather, -1, t0, t1)
		s.tel.SpanBetween(telemetry.KExchange, -1, t1, t2)
		s.tel.SpanBetween(telemetry.KKernel, -1, t2, t3)
	}
	return p.y, nil
}

// OwnedRows returns the rows this rank computes, ascending. The returned
// slice is cached inside the session and must be treated as read-only.
func (s *Session) OwnedRows() []int { return s.ownRows }

// Timings returns the accumulated per-phase wall time of this session's
// multiplies.
func (s *Session) Timings() PhaseTimings { return s.tm }
