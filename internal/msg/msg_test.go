package msg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMessageSizes(t *testing.T) {
	m := &Message{
		From: 1,
		To:   2,
		Subs: []Submessage{
			{Src: 1, Dst: 5, Data: []byte("hello")},
			{Src: 3, Dst: 2, Data: nil},
			{Src: 1, Dst: 7, Data: []byte{1, 2, 3}},
		},
	}
	want := 16 + 3*16 + 8 // frame header, three submessage headers, payload
	if got := EncodedSize(m); got != want {
		t.Errorf("EncodedSize = %d, want %d", got, want)
	}
	if got := len(Encode(nil, m)); got != want {
		t.Errorf("encoded length = %d, want %d", got, want)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := &Message{
		From: 12,
		To:   40,
		Subs: []Submessage{
			{Src: 12, Dst: 3, Data: []byte("abc")},
			{Src: 9, Dst: 40, Data: []byte{}},
			{Src: 0, Dst: 63, Data: bytes.Repeat([]byte{0xAB}, 1000)},
		},
	}
	got, err := Decode(Encode(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.From != m.From || got.To != m.To || len(got.Subs) != len(m.Subs) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range m.Subs {
		if got.Subs[i].Src != m.Subs[i].Src || got.Subs[i].Dst != m.Subs[i].Dst {
			t.Errorf("sub %d endpoints mismatch", i)
		}
		if !bytes.Equal(got.Subs[i].Data, m.Subs[i].Data) {
			t.Errorf("sub %d data mismatch", i)
		}
	}
}

func TestDecodeEmptySubs(t *testing.T) {
	m := &Message{From: 0, To: 1}
	got, err := Decode(Encode(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Subs) != 0 {
		t.Errorf("expected no subs, got %d", len(got.Subs))
	}
}

func TestDecodeErrors(t *testing.T) {
	m := &Message{From: 1, To: 2, Subs: []Submessage{{Src: 1, Dst: 2, Data: []byte("xyz")}}}
	enc := Encode(nil, m)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Errorf("Decode of %d/%d bytes should fail", cut, len(enc))
		}
	}
	// Trailing garbage must be rejected.
	if _, err := Decode(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Error("Decode with trailing byte should fail")
	}
	// A submessage count the frame cannot hold must be rejected before it
	// sizes any allocation (0x0f000000 subs would ask for ~10 GB).
	huge := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(huge[8:], 0x0f000000)
	if _, err := Decode(huge); err == nil {
		t.Error("Decode with a submessage count beyond the frame should fail")
	}
	// A nonzero byte anywhere in either reserved word must be rejected, by
	// Decode, by DecodeInto into a reused Message, and by ReadFrameHeader
	// for the frame header.
	for _, c := range []struct {
		name  string
		at    int
		frame bool
	}{
		{"frame reserved byte 0", 12, true},
		{"frame reserved byte 3", 15, true},
		{"sub reserved byte 0", 16 + 12, false},
		{"sub reserved byte 3", 16 + 15, false},
	} {
		bad := append([]byte(nil), enc...)
		bad[c.at] = 1
		if _, err := Decode(bad); !errors.Is(err, ErrReserved) {
			t.Errorf("%s: Decode err = %v, want ErrReserved", c.name, err)
		}
		reused := Message{Subs: make([]Submessage, 4)}
		if err := DecodeInto(&reused, bad); !errors.Is(err, ErrReserved) {
			t.Errorf("%s: DecodeInto err = %v, want ErrReserved", c.name, err)
		}
		if _, _, _, err := ReadFrameHeader(bad); (err != nil) != c.frame {
			t.Errorf("%s: ReadFrameHeader err = %v", c.name, err)
		}
	}
}

// TestWireLayout pins the frame encoding byte by byte: a two-submessage
// frame from 3 to 5, whose payloads land at offsets 32 and 56 — both on an
// 8-byte boundary. Changing the wire format must change this golden, and
// with it every peer that reads the frames.
func TestWireLayout(t *testing.T) {
	m := &Message{From: 3, To: 5, Subs: []Submessage{
		{Src: 3, Dst: 9, Data: []byte{0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18}},
		{Src: 0x0102, Dst: 5, Data: []byte{0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xAB, 0xAC, 0xAD, 0xAE, 0xAF}},
	}}
	want := []byte{
		// 0: frame header — from, to, nsubs, reserved
		3, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
		// 16: submessage 0 header — src, dst, len, reserved
		3, 0, 0, 0, 9, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0,
		// 32: submessage 0 payload
		0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17, 0x18,
		// 40: submessage 1 header
		0x02, 0x01, 0, 0, 5, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0,
		// 56: submessage 1 payload
		0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xAB, 0xAC, 0xAD, 0xAE, 0xAF,
	}
	got := Encode(nil, m)
	if !bytes.Equal(got, want) {
		t.Fatalf("Encode:\n got %v\nwant %v", got, want)
	}
	if MsgHeaderLen != 16 || SubHeaderLen != 16 || EncodedSize(m) != len(want) {
		t.Fatalf("header lengths %d/%d, EncodedSize %d, golden %d bytes",
			MsgHeaderLen, SubHeaderLen, EncodedSize(m), len(want))
	}
	// The in-place writers produce the same bytes as Encode.
	inPlace := bytes.Repeat([]byte{0xEE}, len(want))
	PutFrameHeader(inPlace[0:], 3, 5, 2)
	PutSubHeader(inPlace[16:], 3, 9, 8)
	copy(inPlace[32:], m.Subs[0].Data)
	PutSubHeader(inPlace[40:], 0x0102, 5, 16)
	copy(inPlace[56:], m.Subs[1].Data)
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("PutFrameHeader/PutSubHeader:\n got %v\nwant %v", inPlace, want)
	}
	if from, to, nsubs, err := ReadFrameHeader(want); err != nil || from != 3 || to != 5 || nsubs != 2 {
		t.Fatalf("ReadFrameHeader = %d, %d, %d, %v", from, to, nsubs, err)
	}
	dec, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range dec.Subs {
		if !bytes.Equal(s.Data, m.Subs[i].Data) || s.Src != m.Subs[i].Src || s.Dst != m.Subs[i].Dst {
			t.Fatalf("sub %d decodes to %+v", i, s)
		}
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(from, to uint16, payloads [][]byte, srcs []uint16) bool {
		m := &Message{From: int(from), To: int(to)}
		for i, p := range payloads {
			src, dst := 0, 1
			if len(srcs) > 0 {
				src = int(srcs[i%len(srcs)])
				dst = int(srcs[(i+1)%len(srcs)])
			}
			m.Subs = append(m.Subs, Submessage{Src: src, Dst: dst, Data: p})
		}
		got, err := Decode(Encode(nil, m))
		if err != nil {
			return false
		}
		if got.From != m.From || got.To != m.To || len(got.Subs) != len(m.Subs) {
			return false
		}
		for i := range m.Subs {
			a, b := got.Subs[i], m.Subs[i]
			if a.Src != b.Src || a.Dst != b.Dst || !bytes.Equal(a.Data, b.Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestForwardBuffers(t *testing.T) {
	fb := NewForwardBuffers([]int{4, 2})
	fb.Put(0, 3, Submessage{Src: 0, Dst: 7, Data: []byte("aa")})
	fb.Put(0, 3, Submessage{Src: 1, Dst: 7, Data: []byte("b")})
	fb.Put(1, 0, Submessage{Src: 2, Dst: 4, Data: []byte("cccc")})
	if fb.SubCount() != 3 {
		t.Errorf("SubCount = %d", fb.SubCount())
	}
	got := fb.Take(0, 3)
	if len(got) != 2 {
		t.Fatalf("Take len = %d", len(got))
	}
	if fb.Take(0, 3) != nil {
		t.Error("Take must drain the buffer")
	}
	if fb.SubCount() != 1 {
		t.Errorf("SubCount after Take = %d", fb.SubCount())
	}
}

func TestSortSubs(t *testing.T) {
	subs := []Submessage{
		{Src: 2, Dst: 1}, {Src: 0, Dst: 9}, {Src: 2, Dst: 0}, {Src: 0, Dst: 3},
	}
	SortSubs(subs)
	want := []Submessage{{Src: 0, Dst: 3}, {Src: 0, Dst: 9}, {Src: 2, Dst: 0}, {Src: 2, Dst: 1}}
	for i := range want {
		if subs[i].Src != want[i].Src || subs[i].Dst != want[i].Dst {
			t.Fatalf("order wrong at %d: %+v", i, subs)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := &Message{From: 0, To: 3, Subs: []Submessage{{Src: 0, Dst: 3}}}
	if err := ok.Validate(4); err != nil {
		t.Errorf("valid frame rejected: %v", err)
	}
	for _, bad := range []*Message{
		{From: -1, To: 0},
		{From: 0, To: 4},
		{From: 0, To: 0, Subs: []Submessage{{Src: 5, Dst: 0}}},
		{From: 0, To: 0, Subs: []Submessage{{Src: 0, Dst: -2}}},
	} {
		if err := bad.Validate(4); err == nil {
			t.Errorf("invalid frame accepted: %+v", bad)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := &Message{From: 0, To: 1}
	for i := 0; i < 64; i++ {
		data := make([]byte, 64)
		rng.Read(data)
		m.Subs = append(m.Subs, Submessage{Src: i, Dst: i + 1, Data: data})
	}
	buf := make([]byte, 0, EncodedSize(m))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func BenchmarkDecode(b *testing.B) {
	m := &Message{From: 0, To: 1}
	for i := 0; i < 64; i++ {
		m.Subs = append(m.Subs, Submessage{Src: i, Dst: i + 1, Data: make([]byte, 64)})
	}
	enc := Encode(nil, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
