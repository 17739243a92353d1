//go:build linux && (amd64 || arm64)

// Batched socket I/O via sendmmsg/recvmmsg: a whole sender drain pass (or
// receive burst) crosses the kernel boundary in one syscall instead of
// one per datagram — the transport-level analogue of the paper's message
// regularization. The raw syscalls run through net's RawConn so the
// sockets stay registered with the Go netpoller: MSG_DONTWAIT plus the
// Read/Write ready-callbacks give blocking semantics without pinning OS
// threads.
package udpnet

import (
	"net"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      [4]byte
}

// batchIO holds one rank's precomputed destination sockaddrs and syscall
// scratch. The sender goroutine owns the s* halves, the receiver the r*
// halves; they never touch each other's. The RawConn ready-callbacks are
// bound once here and keep their per-call state in these fields, so a
// send or receive allocates nothing.
type batchIO struct {
	raddrs []syscall.RawSockaddrInet4

	shdrs  [sendBatchMax]mmsghdr
	siov   [sendBatchMax]syscall.Iovec
	sn     int // datagrams staged in shdrs for the current Write
	sent   int // of which handed to the kernel or given up on
	serrs  int // of which the socket refused
	sendFn func(fd uintptr) bool

	rhdrs  [recvBatchMax]mmsghdr
	riov   [recvBatchMax]syscall.Iovec
	rn     int   // buffers offered to the current Read
	got    int   // datagrams it filled
	rerr   error // socket error other than would-block
	recvFn func(fd uintptr) bool
}

// newBatchIO precomputes raw IPv4 sockaddrs for every rank. A non-IPv4
// address disables the fast path (nil return selects the portable loop).
func newBatchIO(addrs []*net.UDPAddr) *batchIO {
	b := &batchIO{raddrs: make([]syscall.RawSockaddrInet4, len(addrs))}
	b.sendFn, b.recvFn = b.sendReady, b.recvReady
	for i, a := range addrs {
		ip := a.IP.To4()
		if ip == nil {
			return nil
		}
		sa := &b.raddrs[i]
		sa.Family = syscall.AF_INET
		// sin_port is network byte order (the build tags pin us to
		// little-endian hosts).
		sa.Port = uint16(a.Port>>8) | uint16(a.Port&0xff)<<8
		copy(sa.Addr[:], ip)
	}
	return b
}

// send transmits the batch with as few sendmmsg calls as possible and
// returns the number of datagrams the socket refused (dropped; the
// reliability layer recovers them).
func (b *batchIO) send(rc syscall.RawConn, batch []sendEntry) (errs int) {
	off := 0
	for off < len(batch) {
		n := len(batch) - off
		if n > sendBatchMax {
			n = sendBatchMax
		}
		for i := 0; i < n; i++ {
			e := &batch[off+i]
			b.siov[i].Base = &e.buf[0]
			b.siov[i].SetLen(len(e.buf))
			h := &b.shdrs[i]
			h.hdr = syscall.Msghdr{}
			h.hdr.Name = (*byte)(unsafe.Pointer(&b.raddrs[e.to]))
			h.hdr.Namelen = syscall.SizeofSockaddrInet4
			h.hdr.Iov = &b.siov[i]
			h.hdr.Iovlen = 1
			h.msgLen = 0
		}
		b.sn, b.sent, b.serrs = n, 0, 0
		werr := rc.Write(b.sendFn)
		errs += b.serrs
		if werr != nil {
			return errs + len(batch) - off - b.sent
		}
		off += n
	}
	return errs
}

// sendReady is the Write callback: it pushes the staged datagrams with
// sendmmsg until all are gone or the socket would block.
func (b *batchIO) sendReady(fd uintptr) bool {
	for b.sent < b.sn {
		r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&b.shdrs[b.sent])), uintptr(b.sn-b.sent),
			syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case 0:
			b.sent += int(r)
		case syscall.EINTR:
			// retry
		case syscall.EAGAIN:
			return false
		default:
			// sendmmsg only errors when its FIRST datagram fails
			// (ENOBUFS, ICMP-driven refusals during teardown):
			// skip that one and keep the rest of the batch moving.
			b.serrs++
			b.sent++
		}
	}
	return true
}

// recv fills bufs with one recvmmsg batch, blocking (via the netpoller)
// until at least one datagram is available. lens[i] receives datagram i's
// byte length.
func (b *batchIO) recv(rc syscall.RawConn, bufs [][]byte, lens []int) (int, error) {
	n := len(bufs)
	if n > recvBatchMax {
		n = recvBatchMax
	}
	for i := 0; i < n; i++ {
		b.riov[i].Base = &bufs[i][0]
		b.riov[i].SetLen(len(bufs[i]))
		h := &b.rhdrs[i]
		h.hdr = syscall.Msghdr{}
		h.hdr.Iov = &b.riov[i]
		h.hdr.Iovlen = 1
		h.msgLen = 0
	}
	b.rn, b.got, b.rerr = n, 0, nil
	if err := rc.Read(b.recvFn); err != nil {
		return 0, err // socket closed
	}
	if b.rerr != nil {
		return 0, b.rerr
	}
	for i := 0; i < b.got; i++ {
		lens[i] = int(b.rhdrs[i].msgLen)
	}
	return b.got, nil
}

// recvReady is the Read callback: one recvmmsg, retried by the netpoller
// while the socket has nothing.
func (b *batchIO) recvReady(fd uintptr) bool {
	r, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(&b.rhdrs[0])), uintptr(b.rn),
		syscall.MSG_DONTWAIT, 0, 0)
	switch errno {
	case 0:
		b.got = int(r)
		return true
	case syscall.EINTR, syscall.EAGAIN:
		return false
	case syscall.ECONNREFUSED:
		// Queued ICMP error from a peer mid-teardown; consume and go
		// back to the socket.
		return false
	default:
		b.rerr = errno
		return true
	}
}
