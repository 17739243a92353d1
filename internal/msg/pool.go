package msg

import (
	"math/bits"
	"sync"
)

// Frame arena: process-wide sync.Pools of encode/receive buffers for the
// exchange hot path. The stage engine encodes every frame it sends into a
// pooled buffer and recycles it once no one references the bytes any more —
// after Send returns on copying transports, or on the receiving rank once
// the exchange has scattered (and, for deliveries, copied) the frame's
// submessages on retaining transports.
//
// Buffers are pooled in power-of-two size classes. Frame sizes in one
// exchange span orders of magnitude (empty frames are a dozen bytes,
// hot-spot aggregation frames reach megabytes); a single mixed pool would
// let small requests consume large buffers and force large requests to
// allocate — and zero — fresh ones every time. Class i holds buffers with
// capacity in [2^i, 2^(i+1)), so a Get from class i always satisfies
// requests up to 2^i.
//
// Ownership discipline: a buffer obtained from GetFrame/GetFrameCap/
// GetFrameLen has a single owner at any time. Passing it to Comm.Send
// transfers ownership to the transport when runtime.SendRetains(c) reports
// true; otherwise the sender releases it itself. A retaining transport
// either hands the buffer on (the receiving rank releases it) or, on a
// route that copies the bytes, recycles it after the copy: hier's leader
// links and copying outer sub-transports do. Because Decode aliases
// submessage data into the frame buffer, any data that must outlive the
// buffer has to be copied out before PutFrame.
const (
	frameClasses    = 32
	defaultFrameCap = 4096
)

var framePools [frameClasses]sync.Pool

// boxPool recycles the *[]byte headers the frame pools store, so PutFrame
// does not heap-allocate a fresh box for every recycled buffer (pointer
// values cross the sync.Pool interface without allocating; slice headers do
// not). Boxes circulate between boxPool and framePools indefinitely.
var boxPool = sync.Pool{New: func() any { return new([]byte) }}

// frameClass returns the pool class whose buffers all have capacity >= n.
func frameClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // ceil(log2 n)
}

// GetFrame returns a zero-length pooled buffer of the default capacity;
// append into it (e.g. with Encode) and release it with PutFrame when done.
// When the encoded size is known in advance, prefer GetFrameCap.
func GetFrame() []byte { return GetFrameCap(defaultFrameCap) }

// GetFrameCap returns a zero-length pooled buffer with capacity at least n.
// Encoding a frame whose size is known (EncodedSize) into such a buffer
// never grows it, which keeps the hot path free of realloc-and-copy cycles.
func GetFrameCap(n int) []byte {
	c := frameClass(n)
	if c >= frameClasses {
		return make([]byte, 0, n)
	}
	if bp, ok := framePools[c].Get().(*[]byte); ok {
		b := (*bp)[:0]
		*bp = nil
		boxPool.Put(bp)
		return b
	}
	return make([]byte, 0, 1<<c)
}

// GetFrameLen returns a pooled buffer resized to length n (contents
// unspecified), for transports that read a known-length frame off the wire.
func GetFrameLen(n int) []byte {
	return GetFrameCap(n)[:n]
}

// PutFrame recycles a buffer into the arena. The caller must not use b — or
// any data aliasing it, such as submessages decoded from it — afterwards.
func PutFrame(b []byte) {
	cp := cap(b)
	if cp == 0 {
		return
	}
	c := bits.Len(uint(cp)) - 1 // floor(log2 cap): all of class c fits in it
	if c >= frameClasses {
		return
	}
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	framePools[c].Put(bp)
}
