package tptest

import (
	"sync"

	"stfw/internal/runtime"
)

// Lockstep parks one goroutine per endpoint and returns step, which runs
// op(c, iter) once on every rank concurrently (iter counts from 0) and
// returns the first error in rank order, and stop, which ends the
// goroutines and waits for them. A step spawns nothing and allocates
// nothing of its own, so testing.AllocsPerRun around step counts only what
// op allocates across the whole world.
func Lockstep(comms []runtime.Comm, op func(c runtime.Comm, iter int) error) (step func() error, stop func()) {
	next := make([]chan struct{}, len(comms))
	done := make([]chan error, len(comms))
	var wg sync.WaitGroup
	wg.Add(len(comms))
	for r, c := range comms {
		next[r] = make(chan struct{})
		done[r] = make(chan error)
		go func(c runtime.Comm, next chan struct{}, done chan error) {
			defer wg.Done()
			iter := 0
			for range next {
				done <- op(c, iter)
				iter++
			}
		}(c, next[r], done[r])
	}
	step = func() error {
		for _, ch := range next {
			ch <- struct{}{}
		}
		var first error
		for _, ch := range done {
			if err := <-ch; err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	stop = func() {
		for _, ch := range next {
			close(ch)
		}
		wg.Wait()
	}
	return step, stop
}
