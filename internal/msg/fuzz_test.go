package msg

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode exercises the frame decoder with arbitrary bytes: it must
// never panic, and any frame it accepts must re-encode to the identical
// byte string (decode-encode round trip).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(nil, &Message{From: 1, To: 2}))
	f.Add(Encode(nil, &Message{From: 0, To: 3, Subs: []Submessage{
		{Src: 0, Dst: 3, Data: []byte("abc")},
		{Src: 7, Dst: 3, Data: nil},
	}}))
	corrupt := Encode(nil, &Message{From: 9, To: 9, Subs: []Submessage{{Src: 1, Dst: 2, Data: make([]byte, 100)}}})
	corrupt[8] = 0xFF // implausible submessage count
	f.Add(corrupt)
	reserved := Encode(nil, &Message{From: 1, To: 2, Subs: []Submessage{{Src: 1, Dst: 2, Data: make([]byte, 8)}}})
	reserved[MsgHeaderLen+12] = 1 // nonzero submessage reserved word
	f.Add(reserved)
	overCount := Encode(nil, &Message{From: 0, To: 0, Subs: []Submessage{{Data: make([]byte, 24)}}})
	binary.LittleEndian.PutUint32(overCount[8:], 0x0f000000) // more subs than bytes
	f.Add(overCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(nil, m)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not inverse: %d bytes in, %d bytes out", len(data), len(re))
		}
	})
}

// FuzzEncodeDecode drives the opposite direction with structured inputs.
func FuzzEncodeDecode(f *testing.F) {
	f.Add(0, 1, []byte("hello"), 3, 4)
	f.Add(100, 200, []byte{}, 0, 0)
	f.Fuzz(func(t *testing.T, from, to int, data []byte, src, dst int) {
		if from < 0 || to < 0 || src < 0 || dst < 0 ||
			from > 1<<30 || to > 1<<30 || src > 1<<30 || dst > 1<<30 {
			return
		}
		m := &Message{From: from, To: to, Subs: []Submessage{{Src: src, Dst: dst, Data: data}}}
		got, err := Decode(Encode(nil, m))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got.From != from || got.To != to || len(got.Subs) != 1 {
			t.Fatal("header mismatch")
		}
		if got.Subs[0].Src != src || got.Subs[0].Dst != dst || !bytes.Equal(got.Subs[0].Data, data) {
			t.Fatal("submessage mismatch")
		}
	})
}

// FuzzDecodeInto exercises the scratch-reusing decoder the pipelined engine
// runs on its hot path: decoding a new frame into a Message that already
// holds a previous frame's submessages must never panic, must agree with
// the fresh-allocation Decode, and must never leak the previous frame's
// submessages into the result (buffer reuse must not alias stale data).
func FuzzDecodeInto(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(
		Encode(nil, &Message{From: 1, To: 2, Subs: []Submessage{
			{Src: 1, Dst: 2, Data: []byte("first-frame-payload")},
			{Src: 3, Dst: 2, Data: []byte("x")},
		}}),
		Encode(nil, &Message{From: 4, To: 2, Subs: []Submessage{
			{Src: 4, Dst: 2, Data: []byte("second")},
		}}),
	)
	// Truncated second frame: the header promises more submessages than the
	// buffer carries.
	trunc := Encode(nil, &Message{From: 0, To: 1, Subs: []Submessage{{Src: 0, Dst: 1, Data: make([]byte, 64)}}})
	f.Add(Encode(nil, &Message{From: 5, To: 1}), trunc[:len(trunc)-10])
	// Oversized declared length: a submessage claiming more data than
	// follows.
	over := Encode(nil, &Message{From: 2, To: 3, Subs: []Submessage{{Src: 2, Dst: 3, Data: []byte("abcd")}}})
	binary.LittleEndian.PutUint32(over[MsgHeaderLen+8:], 1<<20)
	f.Add([]byte{}, over)
	// Implausible submessage count.
	huge := Encode(nil, &Message{From: 0, To: 0})
	binary.LittleEndian.PutUint32(huge[8:], 1<<29)
	f.Add([]byte{}, huge)
	// Nonzero frame reserved word.
	reserved := Encode(nil, &Message{From: 6, To: 2, Subs: []Submessage{{Src: 6, Dst: 2, Data: []byte("r")}}})
	binary.LittleEndian.PutUint32(reserved[12:], 0xDEAD)
	f.Add(reserved, reserved)

	f.Fuzz(func(t *testing.T, first, second []byte) {
		var scratch Message
		// Prime the scratch with the first frame (errors are fine — scratch
		// is then in an unspecified but non-nil state, which is exactly what
		// the engine's reuse produces after a rejected frame).
		_ = DecodeInto(&scratch, first)

		err2 := DecodeInto(&scratch, second)
		fresh, errFresh := Decode(second)
		if (err2 == nil) != (errFresh == nil) {
			t.Fatalf("DecodeInto err=%v, Decode err=%v", err2, errFresh)
		}
		if err2 != nil {
			return
		}
		if scratch.From != fresh.From || scratch.To != fresh.To || len(scratch.Subs) != len(fresh.Subs) {
			t.Fatalf("reused decode differs from fresh decode")
		}
		for i := range fresh.Subs {
			a, b := scratch.Subs[i], fresh.Subs[i]
			if a.Src != b.Src || a.Dst != b.Dst || !bytes.Equal(a.Data, b.Data) {
				t.Fatalf("submessage %d: reused decode (%d->%d %x) != fresh (%d->%d %x)",
					i, a.Src, a.Dst, a.Data, b.Src, b.Dst, b.Data)
			}
		}
		// The result must re-encode to the input, proving no stale
		// submessage from the first frame leaked into the reused slice.
		if re := Encode(nil, &scratch); !bytes.Equal(re, second) {
			t.Fatalf("reused decode re-encodes to %d bytes, input was %d", len(re), len(second))
		}
	})
}

// FuzzPooledRoundTrip drives the frame arena the way the pipelined engine
// does: encode into a pooled buffer, decode, copy the payloads out, release
// the buffer, immediately reuse it for a different frame — the copied-out
// payloads of the first frame must survive unchanged. This is the aliasing
// discipline PutFrame's contract demands (Decode aliases the frame buffer,
// so data must be copied before release).
func FuzzPooledRoundTrip(f *testing.F) {
	f.Add([]byte("payload-one"), []byte("payload-two-longer-than-one"), 3, 5)
	f.Add([]byte{}, []byte{0xff}, 0, 1)
	f.Fuzz(func(t *testing.T, dataA, dataB []byte, src, dst int) {
		if src < 0 || dst < 0 || src > 1<<30 || dst > 1<<30 {
			return
		}
		mA := &Message{From: src, To: dst, Subs: []Submessage{{Src: src, Dst: dst, Data: dataA}}}
		buf := Encode(GetFrame(), mA)

		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		// Copy out before release, as the engine's copyDelivered step does.
		copied := append([]byte(nil), got.Subs[0].Data...)
		PutFrame(buf)

		// Reuse the arena for a second, different frame; with a single-P
		// fuzz worker this is very likely the same backing array.
		mB := &Message{From: dst, To: src, Subs: []Submessage{{Src: dst, Dst: src, Data: dataB}}}
		buf2 := Encode(GetFrame(), mB)
		defer PutFrame(buf2)

		if !bytes.Equal(copied, dataA) {
			t.Fatalf("copied payload corrupted after buffer reuse: got %x, want %x", copied, dataA)
		}
		got2, err := Decode(buf2)
		if err != nil || !bytes.Equal(got2.Subs[0].Data, dataB) {
			t.Fatalf("second frame corrupted: %v", err)
		}
	})
}
