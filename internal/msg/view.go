package msg

import "unsafe"

// hostLittleEndian reports whether the host's native byte order matches the
// wire format (little-endian). On the common platforms (amd64, arm64,
// riscv64, wasm) it is true and float64 payloads can be read and written in
// place; on a big-endian host every view request falls back to the
// byte-by-byte codec.
var hostLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// Float64View reinterprets b as a []float64 without copying, when that is
// representable: the host is little-endian (matching the wire format), b's
// length is a multiple of 8, and b's data is 8-byte aligned. Otherwise it
// returns ok == false and the caller must fall back to the binary codec.
//
// The view aliases b: writes through the view change b and vice versa, and
// the view must not outlive b. A word-sized payload inside a frame built on
// a pooled (8-byte aligned) buffer always starts on an 8-byte boundary —
// both wire headers are 16 bytes — so a false result means a big-endian
// host, a payload that is not a whole number of words, or a buffer the
// caller sliced off alignment; callers keep the byte codec for those.
func Float64View(b []byte) ([]float64, bool) {
	if !hostLittleEndian || len(b)%8 != 0 {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%unsafe.Alignof(float64(0)) != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(p), len(b)/8), true
}
