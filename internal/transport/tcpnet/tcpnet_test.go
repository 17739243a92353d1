package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/tptest"
	"stfw/internal/vpt"
)

func TestPointToPointOverTCP(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		switch c.Rank() {
		case 0:
			return c.Send(1, 3, []byte("over the wire"))
		case 1:
			p, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if !bytes.Equal(p, []byte("over the wire")) {
				return fmt.Errorf("payload %q", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Error("size 0 accepted")
	}
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	comms := w.Comms()
	if err := comms[0].Send(9, 0, nil); err == nil {
		t.Error("out-of-range send accepted")
	}
	if _, err := comms[0].Recv(-1, 0); err == nil {
		t.Error("out-of-range recv accepted")
	}
	if w.Size() != 2 {
		t.Error("size wrong")
	}
}

func TestEmptyPayload(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, nil)
		}
		p, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if len(p) != 0 {
			return fmt.Errorf("got %d bytes", len(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyFramesFIFO(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	const N = 50
	err = w.Run(func(c runtime.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < N; i++ {
				if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < N; i++ {
			p, err := c.Recv(0, 5)
			if err != nil {
				return err
			}
			if int(p[0]) != i {
				return fmt.Errorf("out of order at %d: %d", i, p[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSTFWExchangeOverTCP(t *testing.T) {
	// The full store-and-forward algorithm over real sockets.
	const K = 16
	tp, err := vpt.NewBalanced(K, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(K)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		// Each rank sends a tagged byte to rank+1 and rank+5 (mod K).
		payloads := map[int][]byte{
			(c.Rank() + 1) % K: {byte(c.Rank()), 1},
			(c.Rank() + 5) % K: {byte(c.Rank()), 5},
		}
		d, err := core.Exchange(c, tp, payloads)
		if err != nil {
			return err
		}
		if len(d.Subs) != 2 {
			return fmt.Errorf("rank %d got %d deliveries", c.Rank(), len(d.Subs))
		}
		for _, sub := range d.Subs {
			wantFrom := (c.Rank() + K - int(sub.Data[1])) % K
			if sub.Src != wantFrom || int(sub.Data[0]) != wantFrom {
				return fmt.Errorf("rank %d: bad delivery %+v", c.Rank(), sub)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOverTCPWorld(t *testing.T) {
	w, err := NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c runtime.Comm) error {
		for i := 0; i < 3; i++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvAfterCloseFails(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	comms := w.Comms()
	done := make(chan error, 1)
	go func() {
		_, err := comms[1].Recv(0, 0)
		done <- err
	}()
	w.Close()
	if err := <-done; err == nil {
		t.Error("recv should fail after close")
	}
}

// TestDeadLinkFailsBlockedRecv speaks the wire format by hand: a peer that
// announces itself as rank 1 and then a frame larger than the limit kills
// the link while the world is open. The Recv already blocked on rank 0 must
// return an error naming the link — not hang until Close, and not
// ErrClosed, which is reserved for the orderly teardown — and the dead
// reader must not outlive the world.
func TestDeadLinkFailsBlockedRecv(t *testing.T) {
	check := tptest.LeakCheck(t)
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := w.Comms()[0].Recv(1, 7)
		errCh <- err
	}()

	peer, err := net.Dial("tcp", w.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	var wire [4 + headerLen]byte
	binary.LittleEndian.PutUint32(wire[0:], 1)     // hello: dialer rank
	binary.LittleEndian.PutUint32(wire[4:], 7)     // tag
	binary.LittleEndian.PutUint32(wire[8:], 1<<31) // payload length
	if _, err := peer.Write(wire[:]); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-errCh:
		if err == nil || errors.Is(err, runtime.ErrClosed) || !strings.Contains(err.Error(), "link 1→0") {
			t.Errorf("blocked Recv returned %v, want an error naming link 1→0", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Recv on a dead link still blocked after 2 s")
	}
	if _, err := w.Comms()[0].Recv(1, 7); err == nil || errors.Is(err, runtime.ErrClosed) {
		t.Errorf("later Recv returned %v, want the link's error", err)
	}
	w.Close()
	if _, err := w.Comms()[0].Recv(1, 7); err == nil || errors.Is(err, runtime.ErrClosed) {
		t.Errorf("Recv after Close returned %v: the first cause must stick", err)
	}
	peer.Close()
	check()
}
