package runtime

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// awaitWaiters blocks until n goroutines are parked inside the matcher.
func awaitWaiters(t *testing.T, m *Matcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.mu.Lock()
		got := m.waiters
		m.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines blocked in the matcher, want %d", got, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func mustPush(t *testing.T, m *Matcher, from, tag int, payload string) {
	t.Helper()
	if err := m.Push(from, tag, []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

// TestMatcherContract is the receive side of the Comm contract, checked on
// the type that carries it, for an unbounded matcher (wire transports) and
// two mailbox bounds (chanpt). No sender queues more than one frame at a
// time unless the case is about the bound, so every case runs at bound 1.
func TestMatcherContract(t *testing.T) {
	errLink := errors.New("link 1→0: connection reset")
	cases := []struct {
		name string
		run  func(t *testing.T, m *Matcher, bound int)
	}{
		{"SenderFilter", func(t *testing.T, m *Matcher, _ int) {
			mustPush(t, m, 2, 7, "early-but-unlisted")
			mustPush(t, m, 1, 7, "listed")
			from, p, err := m.RecvAnyOf(7, []int{1})
			if err != nil || from != 1 || string(p) != "listed" {
				t.Fatalf("got from=%d payload=%q err=%v, want the listed sender", from, p, err)
			}
			if p, err := m.Recv(2, 7); err != nil || string(p) != "early-but-unlisted" {
				t.Fatalf("queued frame lost: %q, %v", p, err)
			}
		}},
		{"TagFilter", func(t *testing.T, m *Matcher, _ int) {
			mustPush(t, m, 1, 8, "next-stage")
			mustPush(t, m, 2, 7, "this-stage")
			from, p, err := m.RecvAnyOf(7, []int{1, 2})
			if err != nil || from != 2 || string(p) != "this-stage" {
				t.Fatalf("got from=%d payload=%q err=%v, want the tag-7 frame", from, p, err)
			}
			if p, err := m.Recv(1, 8); err != nil || string(p) != "next-stage" {
				t.Fatalf("tag-8 frame lost: %q, %v", p, err)
			}
		}},
		{"ArrivalOrderAndDrain", func(t *testing.T, m *Matcher, _ int) {
			for _, r := range []int{3, 1, 2} {
				mustPush(t, m, r, 9, fmt.Sprint(r))
			}
			for _, want := range []int{3, 1, 2} { // arrival, not candidate-list, order
				from, p, err := m.RecvAnyOf(9, []int{1, 2, 3})
				if err != nil || from != want || string(p) != fmt.Sprint(want) {
					t.Fatalf("got from=%d payload=%q err=%v, want sender %d", from, p, err, want)
				}
			}
		}},
		{"OldestFrameTagMismatch", func(t *testing.T, m *Matcher, _ int) {
			mustPush(t, m, 1, 1, "x")
			if _, err := m.Recv(1, 2); err == nil {
				t.Fatal("Recv skipped the pair's oldest frame to look for its tag")
			}
			if p, err := m.Recv(1, 1); err != nil || string(p) != "x" {
				t.Fatalf("mismatch consumed the frame: %q, %v", p, err)
			}
		}},
		{"RangeChecks", func(t *testing.T, m *Matcher, _ int) {
			if _, _, err := m.RecvAnyOf(1, nil); err == nil {
				t.Error("empty candidate list accepted")
			}
			for _, r := range []int{-1, 4} {
				if _, _, err := m.RecvAnyOf(1, []int{0, r}); err == nil {
					t.Errorf("candidate %d accepted", r)
				}
				if _, err := m.Recv(r, 1); err == nil {
					t.Errorf("Recv from %d accepted", r)
				}
				if err := m.Push(r, 1, nil); err == nil {
					t.Errorf("Push from %d accepted", r)
				}
			}
		}},
		{"PushAtTheBound", func(t *testing.T, m *Matcher, bound int) {
			for i := 0; i < bound; i++ {
				mustPush(t, m, 1, 5, fmt.Sprint(i))
			}
			done := make(chan error, 1)
			go func() { done <- m.Push(1, 5, []byte("over")) }()
			if bound == 0 {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				return
			}
			awaitWaiters(t, m, 1)
			mustPush(t, m, 2, 5, "other sender is not held back")
			if p, err := m.Recv(1, 5); err != nil || string(p) != "0" {
				t.Fatalf("got %q, %v, want the sender's oldest frame", p, err)
			}
			if err := <-done; err != nil {
				t.Fatalf("one Recv did not release the blocked Push: %v", err)
			}
		}},
		{"CloseWakesBlocked", func(t *testing.T, m *Matcher, bound int) {
			errs := make(chan error, 3)
			go func() { _, err := m.Recv(2, 1); errs <- err }()
			go func() { _, _, err := m.RecvAnyOf(1, []int{2, 3}); errs <- err }()
			blocked := 2
			if bound > 0 {
				for i := 0; i < bound; i++ {
					mustPush(t, m, 1, 5, "fill")
				}
				go func() { errs <- m.Push(1, 5, nil) }()
				blocked = 3
			}
			awaitWaiters(t, m, blocked)
			m.Close(ErrClosed)
			for i := 0; i < blocked; i++ {
				if err := <-errs; !errors.Is(err, ErrClosed) {
					t.Errorf("blocked operation woke with %v, want ErrClosed", err)
				}
			}
		}},
		{"DrainsAfterCloseFirstCauseSticks", func(t *testing.T, m *Matcher, _ int) {
			mustPush(t, m, 1, 1, "a")
			mustPush(t, m, 2, 1, "b")
			m.Close(errLink)
			m.Close(ErrClosed)
			if p, err := m.Recv(1, 1); err != nil || string(p) != "a" {
				t.Fatalf("queued frame not receivable after close: %q, %v", p, err)
			}
			if from, p, err := m.RecvAnyOf(1, []int{1, 2}); err != nil || from != 2 || string(p) != "b" {
				t.Fatalf("queued frame not receivable after close: from=%d %q, %v", from, p, err)
			}
			if _, err := m.Recv(1, 1); err != errLink {
				t.Errorf("drained Recv failed with %v, want the first close cause", err)
			}
			if _, _, err := m.RecvAnyOf(1, []int{1, 2}); err != errLink {
				t.Errorf("drained RecvAnyOf failed with %v, want the first close cause", err)
			}
			if err := m.Push(1, 1, nil); err != errLink {
				t.Errorf("Push after close: %v, want the first close cause", err)
			}
		}},
		{"SteadyStateAllocs", func(t *testing.T, m *Matcher, _ int) {
			payload := []byte("p")
			pair := func() {
				if err := m.Push(1, 1, payload); err != nil {
					t.Fatal(err)
				}
				if _, _, err := m.RecvAnyOf(1, []int{2, 1}); err != nil {
					t.Fatal(err)
				}
			}
			pair() // first append sizes the queue
			if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
				t.Errorf("%.1f allocs per push/receive pair, want 0", allocs)
			}
		}},
	}
	for _, bound := range []int{0, 1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("bound%d/%s", bound, tc.name), func(t *testing.T) {
				tc.run(t, NewMatcher(4, bound), bound)
			})
		}
	}
}
