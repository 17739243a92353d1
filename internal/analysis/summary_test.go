package analysis

import (
	"go/types"
	"testing"
)

// loadSummaryFixture loads testdata/summary and computes its summaries.
func loadSummaryFixture(t *testing.T) (*Package, *SummarySet) {
	t.Helper()
	pkgs, err := Load("", "stfw/internal/analysis/testdata/summary")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	return pkgs[0], computeSummaries(pkgs[0])
}

// fnOf resolves a package-level function by name.
func fnOf(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	obj := pkg.Types.Scope().Lookup(name)
	fn, ok := obj.(*types.Func)
	if !ok {
		t.Fatalf("no function %q in fixture (got %v)", name, obj)
	}
	return fn
}

func TestSummaryParamEffects(t *testing.T) {
	pkg, set := loadSummaryFixture(t)
	cases := []struct {
		fn   string
		idx  int
		want ParamEffect
	}{
		{"release", 0, EffRelease},
		{"releaseChain", 0, EffRelease},
		{"stamp", 0, EffPassthrough},
		{"stash", 1, EffEscape},
		{"checksum", 0, EffBorrow},
		{"recycleLast", 0, EffRelease}, // through self-recursion
		{"ringRelease", 1, EffRelease}, // through the PacketRing.Put row
	}
	for _, c := range cases {
		sum := set.Of(fnOf(t, pkg, c.fn))
		if sum == nil {
			t.Errorf("%s: no summary", c.fn)
			continue
		}
		if got := sum.Params[c.idx]; got != c.want {
			t.Errorf("%s param %d: got %v, want %v", c.fn, c.idx, got, c.want)
		}
	}
}

func TestSummaryReturnsOwned(t *testing.T) {
	pkg, set := loadSummaryFixture(t)
	cases := []struct {
		fn   string
		want []bool
	}{
		{"mint", []bool{true}},
		{"mintChain", []bool{true}}, // through the helper
		{"mintPair", []bool{true, false}},
		{"stamp", []bool{false}}, // passthrough, not a mint
	}
	for _, c := range cases {
		sum := set.Of(fnOf(t, pkg, c.fn))
		if sum == nil {
			t.Errorf("%s: no summary", c.fn)
			continue
		}
		if len(sum.ReturnsOwned) != len(c.want) {
			t.Errorf("%s: %d results, want %d", c.fn, len(sum.ReturnsOwned), len(c.want))
			continue
		}
		for i, w := range c.want {
			if sum.ReturnsOwned[i] != w {
				t.Errorf("%s result %d: owned=%v, want %v", c.fn, i, sum.ReturnsOwned[i], w)
			}
		}
	}
}

func TestSummaryMayBlock(t *testing.T) {
	pkg, set := loadSummaryFixture(t)
	cases := []struct {
		fn       string
		mayBlock bool
	}{
		{"blockSend", true},
		{"blockIndirect", true},
		{"spawns", false}, // goroutine bodies don't block the caller
		{"ping", true},    // mutual recursion, blocking base case
		{"pong", true},
		{"recvAny", true}, // through the runtime.RecvAnyOf row
		{"ringRelease", false},
		{"checksum", false},
	}
	for _, c := range cases {
		sum := set.Of(fnOf(t, pkg, c.fn))
		if sum == nil {
			t.Errorf("%s: no summary", c.fn)
			continue
		}
		if sum.MayBlock != c.mayBlock {
			t.Errorf("%s: MayBlock=%v, want %v", c.fn, sum.MayBlock, c.mayBlock)
		}
	}
}

// TestSummarySCCOrder checks the bottom-up traversal: a callee's component
// is summarized before its caller's, and mutual recursion shares one
// component.
func TestSummarySCCOrder(t *testing.T) {
	pkg, set := loadSummaryFixture(t)
	orderIdx := make(map[*types.Func]int, len(set.order))
	for i, fn := range set.order {
		orderIdx[fn] = i
	}
	calleeBeforeCaller := [][2]string{
		{"mint", "mintChain"},
		{"release", "releaseChain"},
		{"blockSend", "blockIndirect"},
	}
	for _, pair := range calleeBeforeCaller {
		callee, caller := fnOf(t, pkg, pair[0]), fnOf(t, pkg, pair[1])
		if orderIdx[callee] >= orderIdx[caller] {
			t.Errorf("%s summarized at %d, after its caller %s at %d",
				pair[0], orderIdx[callee], pair[1], orderIdx[caller])
		}
		if set.sccOf[callee] == set.sccOf[caller] {
			t.Errorf("%s and %s share an SCC; they are not mutually recursive", pair[0], pair[1])
		}
	}
	ping, pong := fnOf(t, pkg, "ping"), fnOf(t, pkg, "pong")
	if set.sccOf[ping] != set.sccOf[pong] {
		t.Errorf("mutually recursive ping/pong in distinct SCCs %d and %d",
			set.sccOf[ping], set.sccOf[pong])
	}
	rec := fnOf(t, pkg, "recycleLast")
	if _, ok := set.sccOf[rec]; !ok {
		t.Errorf("recycleLast missing from the SCC index")
	}
}

// TestCrossSummary checks the export-data fallback row by row: every name
// crossSummary matches is resolved against the real packages' export data
// and must get exactly its row's summary, so renaming a function or type
// the table keys on fails here instead of silently turning the row off.
func TestCrossSummary(t *testing.T) {
	pkg, set := loadSummaryFixture(t)
	imported := func(path string) *types.Package {
		for _, imp := range pkg.Types.Imports() {
			if imp.Path() == path {
				return imp
			}
		}
		t.Fatalf("fixture does not import %s", path)
		return nil
	}
	msgPkg := imported("stfw/internal/msg")
	runtimePkg := imported("stfw/internal/runtime")
	udpPkg := imported("stfw/internal/transport/udpnet")
	fn := func(p *types.Package, name string) *types.Func {
		f, ok := p.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("%s.%s not found", p.Name(), name)
		}
		return f
	}
	method := func(p *types.Package, typ, name string) *types.Func {
		tn, ok := p.Scope().Lookup(typ).(*types.TypeName)
		if !ok {
			t.Fatalf("%s.%s not found", p.Name(), typ)
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, p, name)
		f, ok := obj.(*types.Func)
		if !ok {
			t.Fatalf("%s.%s.%s not found", p.Name(), typ, name)
		}
		return f
	}
	const (
		B = EffBorrow
		P = EffPassthrough
		R = EffRelease
		E = EffEscape
	)
	sum := func(params []ParamEffect, owned []bool, mayBlock bool) *FuncSummary {
		return &FuncSummary{Params: params, ReturnsOwned: owned, MayBlock: mayBlock}
	}
	rows := []struct {
		name string
		fn   *types.Func
		want *FuncSummary
	}{
		{"msg.GetFrame", fn(msgPkg, "GetFrame"), sum([]ParamEffect{}, []bool{true}, false)},
		{"msg.GetFrameCap", fn(msgPkg, "GetFrameCap"), sum([]ParamEffect{B}, []bool{true}, false)},
		{"msg.GetFrameLen", fn(msgPkg, "GetFrameLen"), sum([]ParamEffect{B}, []bool{true}, false)},
		{"msg.PutFrame", fn(msgPkg, "PutFrame"), sum([]ParamEffect{R}, []bool{}, false)},
		{"msg.Encode", fn(msgPkg, "Encode"), sum([]ParamEffect{P, B}, []bool{false}, false)},
		{"udpnet.PacketRing.Get", method(udpPkg, "PacketRing", "Get"), sum([]ParamEffect{}, []bool{true}, false)},
		{"udpnet.PacketRing.Put", method(udpPkg, "PacketRing", "Put"), sum([]ParamEffect{R}, []bool{}, false)},
		{"runtime.RecvAnyOf", fn(runtimePkg, "RecvAnyOf"), sum([]ParamEffect{B, B, B}, []bool{false, false, false}, true)},
		{"runtime.Run", fn(runtimePkg, "Run"), sum([]ParamEffect{B, B}, []bool{false}, true)},
		{"runtime.Matcher.Push", method(runtimePkg, "Matcher", "Push"), sum([]ParamEffect{B, B, E}, []bool{false}, true)},
		{"runtime.Matcher.Recv", method(runtimePkg, "Matcher", "Recv"), sum([]ParamEffect{B, B}, []bool{false, false}, true)},
		{"runtime.Matcher.RecvAnyOf", method(runtimePkg, "Matcher", "RecvAnyOf"), sum([]ParamEffect{B, B}, []bool{false, false, false}, true)},
	}
	for _, r := range rows {
		if got := set.Of(r.fn); got == nil || !got.equal(r.want) {
			t.Errorf("%s: got %+v, want %+v", r.name, got, r.want)
		}
	}
	// A function with no cross-summary entry yields nil: callers fall back
	// to the conservative conventions.
	if got := set.Of(fn(msgPkg, "EncodedSize")); got != nil {
		t.Errorf("msg.EncodedSize: want nil (unknown cross-package), got %+v", got)
	}
}
