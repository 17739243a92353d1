package hier_test

import (
	"strings"
	"testing"

	"stfw/internal/core"
	"stfw/internal/runtime"
	"stfw/internal/transport/hier"
	"stfw/internal/transport/tptest"
	"stfw/internal/transport/udpnet"
	"stfw/internal/vpt"
)

// reservingWorld is a world of fake sub-transports claiming a control-tag
// range.
func reservingWorld(size, lo, hi int) []runtime.Comm {
	comms := make([]runtime.Comm, size)
	for r := range comms {
		comms[r] = &tptest.SeamFake{Me: r, World: size, ResLo: lo, ResHi: hi}
	}
	return comms
}

// TestTagCollisionRejected is the tag-space regression test: a
// sub-transport whose reserved control tags alias the application tag span
// (here, the exact span the exchange paths draw stage tags from) must be
// rejected at construction, because an application frame routed over that
// sub-transport would cross-match a control frame.
func TestTagCollisionRejected(t *testing.T) {
	const size = 4
	appLo, appHi := core.AppTagSpan(vpt.MaxDim(size))
	clean := reservingWorld(size, 1<<30, 1<<30+2)
	colliding := reservingWorld(size, core.StageTag(0), core.StageTag(0)+1)

	if _, err := hier.New(hier.Config{
		Inner: clean, Outer: colliding, NodeOf: twoNodes(size),
		AppTagLo: appLo, AppTagHi: appHi,
	}); err == nil {
		t.Fatal("sub-transport reserving a stage tag accepted")
	} else if !strings.Contains(err.Error(), "reserves control tags") {
		t.Fatalf("unexpected rejection: %v", err)
	}

	// The same collision must also be caught under the default span, so a
	// caller that never names the core tag layout is still protected.
	if _, err := hier.New(hier.Config{
		Inner: colliding, Outer: clean, NodeOf: twoNodes(size),
	}); err == nil {
		t.Fatal("colliding reservation accepted under the default span")
	}

	// Disjoint reservations pass with the same checks enabled.
	if _, err := hier.New(hier.Config{
		Inner: clean, Outer: reservingWorld(size, 1<<31-256, 1<<31-254),
		NodeOf: twoNodes(size), AppTagLo: appLo, AppTagHi: appHi,
	}); err != nil {
		t.Fatalf("disjoint reservation rejected: %v", err)
	}
}

// TestMuxReservedTagsUnion: the mux endpoint re-exports its
// sub-transports' control-tag claims as their covering union, so an outer
// composite nesting this world (hier-of-hier) still sees the leaves'
// reservations in its own collision check.
func TestMuxReservedTagsUnion(t *testing.T) {
	const size = 4
	newWorld := func(inner, outer []runtime.Comm) runtime.Comm {
		t.Helper()
		w, err := hier.New(hier.Config{Inner: inner, Outer: outer, NodeOf: twoNodes(size)})
		if err != nil {
			t.Fatal(err)
		}
		return w.Comms()[0]
	}

	// Both sides reserve: the union covers both claims.
	c := newWorld(reservingWorld(size, 1<<30, 1<<30+2), reservingWorld(size, 1<<31-256, 1<<31-254))
	if lo, hi, ok := runtime.ReservedTagsOf(c); !ok || lo != 1<<30 || hi != 1<<31-254 {
		t.Fatalf("union of [1<<30,1<<30+2) and [1<<31-256,1<<31-254): got [%#x,%#x) ok=%v", lo, hi, ok)
	}

	// One side reserves: its claim passes through unchanged.
	c = newWorld(reservingWorld(size, 0, 0), reservingWorld(size, 1<<30, 1<<30+2))
	if lo, hi, ok := runtime.ReservedTagsOf(c); !ok || lo != 1<<30 || hi != 1<<30+2 {
		t.Fatalf("single-side reservation: got [%#x,%#x) ok=%v", lo, hi, ok)
	}

	// Neither side reserves: the mux declares nothing.
	c = newWorld(reservingWorld(size, 0, 0), reservingWorld(size, 0, 0))
	if lo, hi, ok := runtime.ReservedTagsOf(c); ok {
		t.Fatalf("tag-clean subs produced a reservation [%#x,%#x)", lo, hi)
	}

	// The payoff: an outer mux nesting this world rejects the hidden
	// collision the way it would reject the leaf itself.
	nested := make([]runtime.Comm, size)
	w, err := hier.New(hier.Config{Inner: reservingWorld(size, 0, 0), Outer: reservingWorld(size, 0, 0), NodeOf: twoNodes(size)})
	if err != nil {
		t.Fatal(err)
	}
	colliding, err := hier.New(hier.Config{
		Inner:  reservingWorld(size, core.StageTag(0), core.StageTag(0)+1),
		Outer:  reservingWorld(size, 0, 0),
		NodeOf: twoNodes(size),
		// Collision checks are span-vs-subs; the inner world itself is
		// built with an out-of-the-way span so construction succeeds and
		// the colliding claim surfaces one level up.
		AppTagLo: 1 << 28, AppTagHi: 1<<28 + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < size; r++ {
		nested[r] = colliding.Comms()[r]
	}
	if _, err := hier.New(hier.Config{Inner: nested, Outer: w.Comms(), NodeOf: twoNodes(size)}); err == nil {
		t.Fatal("outer mux accepted a nested world whose leaves reserve a stage tag")
	} else if !strings.Contains(err.Error(), "reserves control tags") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// TestUDPControlTagsOutsideAppSpan ties the layers together: udpnet's
// declared control-tag reservation must lie outside both the core tag
// layout's span and hier's default application ceiling — the property the
// collision check enforces for arbitrary sub-transports.
func TestUDPControlTagsOutsideAppSpan(t *testing.T) {
	w, err := udpnet.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lo, hi, ok := runtime.ReservedTagsOf(w.Comms()[0])
	if !ok {
		t.Fatal("udpnet does not declare its control tags")
	}
	appLo, appHi := core.AppTagSpan(16)
	if lo < appHi && appLo < hi {
		t.Fatalf("udpnet control tags [%#x,%#x) alias the core tag span [%#x,%#x)", lo, hi, appLo, appHi)
	}
	if lo < hier.DefaultAppTagCeiling {
		t.Fatalf("udpnet control tags [%#x,%#x) fall under the default application ceiling %#x",
			lo, hi, hier.DefaultAppTagCeiling)
	}
	if appHi > hier.DefaultAppTagCeiling {
		t.Fatalf("core tag span [%#x,%#x) exceeds the default application ceiling %#x",
			appLo, appHi, hier.DefaultAppTagCeiling)
	}
}
