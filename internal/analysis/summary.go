package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Interprocedural function summaries. Classifying every call by a
// package-boundary convention — same-package callees borrow their
// arguments, cross-package callees take ownership — makes any helper
// function an analysis blind spot: a leak routed through a local
// mint-and-return helper, or a blocking send two frames deep under a held
// mutex, is invisible. A FuncSummary captures the caller-visible effects
// of one function so the analyzers can see through calls: what the callee
// does with each pooled-buffer parameter, whether any result carries a
// freshly minted pooled buffer the caller must own, and whether the callee
// may block on transport progress.
//
// Summaries are computed per package, bottom-up over the condensed call
// graph (callgraph.go): non-recursive callees are final before their
// callers are visited, and each recursive component iterates to a fixpoint
// from the optimistic bottom (all parameters borrowed, nothing blocks) of
// a finite lattice, so the iteration terminates. Calls that leave the
// package are summarized from the already-loaded export data by signature
// and import path (crossSummary) — the conservative static mirror of the
// msg frame-arena, udpnet PacketRing, and runtime.Comm contracts; unknown
// cross-package callees are assumed to take ownership and not to block.

// ParamEffect classifies what a callee may do with a pooled buffer passed
// in one parameter position.
type ParamEffect int

const (
	// EffBorrow: the callee only reads the buffer; the caller still owns it.
	EffBorrow ParamEffect = iota
	// EffPassthrough: the buffer flows to the callee's result (append-shaped
	// builders, msg.Encode); the caller tracks the returned value instead.
	EffPassthrough
	// EffRelease: the callee recycles the buffer (msg.PutFrame or
	// PacketRing.Put) on some path; ownership is resolved at the call.
	EffRelease
	// EffEscape: the callee hands the buffer off — sends it, stores it, or
	// otherwise keeps it; ownership leaves the caller at the call.
	EffEscape
)

func (e ParamEffect) String() string {
	switch e {
	case EffBorrow:
		return "borrow"
	case EffPassthrough:
		return "passthrough"
	case EffRelease:
		return "release"
	case EffEscape:
		return "escape"
	}
	return "invalid"
}

// FuncSummary is the caller-visible abstract of one function.
type FuncSummary struct {
	// Params holds one effect per declared parameter (receiver excluded).
	// Only byte-slice parameters can carry pooled buffers; all others stay
	// EffBorrow.
	Params []ParamEffect
	// ReturnsOwned marks each result that carries a freshly minted pooled
	// buffer (GetFrame*/ring Get, possibly routed through further helpers):
	// the caller owns that result and must release or hand it off.
	ReturnsOwned []bool
	// MayBlock reports that the function can block on distributed progress:
	// a channel send, a Comm-shaped transport call (Send/Recv/RecvAnyOf/
	// Barrier), or a call to a function that may. Code inside `go`
	// statements and function literals does not count — it blocks some
	// later goroutine, not this call.
	MayBlock bool
}

func (s *FuncSummary) equal(o *FuncSummary) bool {
	if s.MayBlock != o.MayBlock ||
		len(s.Params) != len(o.Params) || len(s.ReturnsOwned) != len(o.ReturnsOwned) {
		return false
	}
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	for i := range s.ReturnsOwned {
		if s.ReturnsOwned[i] != o.ReturnsOwned[i] {
			return false
		}
	}
	return true
}

// effectAt returns the effect for argument position i of a call to fn,
// folding variadic tails onto the last declared parameter.
func (s *FuncSummary) effectAt(i int, fn *types.Func) ParamEffect {
	if i < 0 || len(s.Params) == 0 {
		return EffBorrow
	}
	if i >= len(s.Params) {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() {
			return s.Params[len(s.Params)-1]
		}
		return EffBorrow
	}
	return s.Params[i]
}

// SummarySet holds the computed summaries of one package plus the shared
// parent index the effect classifier climbs with.
type SummarySet struct {
	pkg     *Package
	decls   map[*types.Func]*ast.FuncDecl
	funcs   map[*types.Func]*FuncSummary
	sccOf   map[*types.Func]int
	order   []*types.Func // bottom-up summarization order (flattened SCCs)
	parents map[ast.Node]ast.Node
}

// Of returns the summary governing calls to fn: the computed summary for
// functions declared in the set's package, the export-data-derived
// crossSummary for known cross-package shapes, nil when nothing is known
// (callers fall back to assume-escape and assume-non-blocking).
func (s *SummarySet) Of(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	if sum, ok := s.funcs[fn]; ok {
		return sum
	}
	return crossSummary(fn)
}

// computeSummaries builds the package's call graph and summarizes every
// declared function bottom-up.
func computeSummaries(pkg *Package) *SummarySet {
	g := buildCallGraph(pkg)
	set := &SummarySet{
		pkg:     pkg,
		decls:   g.decls,
		funcs:   make(map[*types.Func]*FuncSummary, len(g.funcs)),
		sccOf:   make(map[*types.Func]int, len(g.funcs)),
		parents: make(map[ast.Node]ast.Node),
	}
	for _, f := range pkg.Files {
		for n, p := range buildParents(f) {
			set.parents[n] = p
		}
	}
	for ci, comp := range g.sccs() {
		for _, fn := range comp {
			set.funcs[fn] = freshSummary(fn)
			set.sccOf[fn] = ci
			set.order = append(set.order, fn)
		}
		// Non-recursive components converge in one pass; recursive ones
		// iterate from the optimistic bottom until stable.
		for changed := true; changed; {
			changed = false
			for _, fn := range comp {
				next := summarize(pkg, set, fn, g.decls[fn])
				if !next.equal(set.funcs[fn]) {
					set.funcs[fn] = next
					changed = true
				}
			}
		}
	}
	return set
}

func freshSummary(fn *types.Func) *FuncSummary {
	sig := fn.Type().(*types.Signature)
	return &FuncSummary{
		Params:       make([]ParamEffect, sig.Params().Len()),
		ReturnsOwned: make([]bool, sig.Results().Len()),
	}
}

// summarize recomputes fn's summary from its body under the set's current
// summaries (final for callees below fn, in-progress for SCC siblings).
func summarize(pkg *Package, set *SummarySet, fn *types.Func, fd *ast.FuncDecl) *FuncSummary {
	sig := fn.Type().(*types.Signature)
	s := &FuncSummary{
		Params:       make([]ParamEffect, sig.Params().Len()),
		ReturnsOwned: make([]bool, sig.Results().Len()),
	}
	for i := range s.Params {
		obj := sig.Params().At(i)
		if !isByteSlice(obj.Type()) {
			continue
		}
		eff := EffBorrow
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || pkg.Info.Uses[id] != obj {
				return true
			}
			if e := useEffect(pkg, set, id, obj); e > eff {
				eff = e
			}
			return true
		})
		s.Params[i] = eff
	}
	for _, ret := range ownReturns(fd.Body) {
		summarizeReturn(pkg, set, ret, s.ReturnsOwned)
	}
	s.MayBlock = mayBlockIn(pkg, set, fd.Body)
	return s
}

// ownReturns collects the function's own return statements, skipping
// nested function literals (their returns belong to the literal).
func ownReturns(body *ast.BlockStmt) []*ast.ReturnStmt {
	var rets []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			rets = append(rets, v)
		}
		return true
	})
	return rets
}

// summarizeReturn marks the results this return statement hands a freshly
// minted pooled buffer through.
func summarizeReturn(pkg *Package, set *SummarySet, ret *ast.ReturnStmt, owned []bool) {
	if len(ret.Results) == 0 || len(owned) == 0 {
		return
	}
	if len(ret.Results) == 1 && len(owned) > 1 {
		// Tuple forward: `return helper()` — propagate the callee's map.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			if sum := set.Of(calleeFunc(pkg.Info, call)); sum != nil {
				for i := 0; i < len(owned) && i < len(sum.ReturnsOwned); i++ {
					owned[i] = owned[i] || sum.ReturnsOwned[i]
				}
			}
		}
		return
	}
	for i, e := range ret.Results {
		if i >= len(owned) || owned[i] {
			continue
		}
		if tv, ok := pkg.Info.Types[e]; !ok || !isByteSlice(tv.Type) {
			continue
		}
		if exprContainsMint(pkg, set, e) {
			owned[i] = true
		}
	}
}

// exprContainsMint reports whether evaluating the expression mints a pooled
// buffer: a direct GetFrame*/ring Get, or a call to a helper whose summary
// says it returns an owned buffer.
func exprContainsMint(pkg *Package, set *SummarySet, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isFrameSource(pkg.Info, call) {
			found = true
			return false
		}
		if sum := set.Of(calleeFunc(pkg.Info, call)); sum != nil {
			for _, o := range sum.ReturnsOwned {
				if o {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// useEffect classifies what one occurrence of a tracked byte-slice variable
// does to its ownership, from the callee's perspective. It mirrors
// framepool's caller-side classifyFrom but reports nothing and consults
// in-progress summaries, so it is usable during the fixpoint.
func useEffect(pkg *Package, set *SummarySet, start ast.Node, obj types.Object) ParamEffect {
	info := pkg.Info
	expr := start
	for { // climb parens and reslices: PutFrame(b[:0]) still releases b
		p := set.parents[expr]
		if pe, ok := p.(*ast.ParenExpr); ok {
			expr = pe
			continue
		}
		if se, ok := p.(*ast.SliceExpr); ok && ast.Unparen(se.X) == expr {
			expr = se
			continue
		}
		break
	}
	switch p := set.parents[expr].(type) {
	case *ast.CallExpr:
		idx := argIndex(p, expr)
		if idx < 0 {
			return EffBorrow // callee position or index expression
		}
		return callArgEffect(pkg, set, p, idx, obj)
	case *ast.SendStmt:
		if ast.Unparen(p.Value) == expr {
			return EffEscape
		}
		return EffBorrow
	case *ast.ReturnStmt:
		return EffPassthrough
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return EffEscape
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != expr || i >= len(p.Lhs) {
				continue
			}
			if lhs, ok := p.Lhs[i].(*ast.Ident); ok && obj != nil && info.Uses[lhs] == obj {
				return EffBorrow // self reslice or regrow: b = b[:n]
			}
			return EffEscape // aliased or stored
		}
		return EffBorrow
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return EffEscape
		}
		return EffBorrow
	default:
		return EffBorrow
	}
}

// callArgEffect classifies passing the tracked buffer as argument idx of
// the call.
func callArgEffect(pkg *Package, set *SummarySet, call *ast.CallExpr, idx int, obj types.Object) ParamEffect {
	info := pkg.Info
	if isPutFrame(info, call) {
		return EffRelease
	}
	if isCommSend(info, call) {
		if idx == 2 {
			return EffEscape
		}
		return EffBorrow
	}
	switch builtinName(info, call) {
	case "len", "cap", "copy", "clear", "min", "max", "print", "println", "panic":
		return EffBorrow
	case "append":
		if idx == 0 {
			return useEffect(pkg, set, call, obj) // the grown alias's fate decides
		}
		if call.Ellipsis != token.NoPos {
			return EffBorrow // append(x, b...): bytes copied out
		}
		return EffEscape // append(frames, b): retained by the slice
	case "":
		// Not a builtin; classify through the callee's summary.
	default:
		return EffBorrow
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return EffEscape // call through a function value: assume it keeps it
	}
	if isPkgFunc(fn, "internal/msg", "Decode", "DecodeInto", "Float64View", "EncodedSize") {
		return EffBorrow // codec reads alias the buffer; ownership stays put
	}
	if sum := set.Of(fn); sum != nil {
		switch sum.effectAt(idx, fn) {
		case EffRelease:
			return EffRelease
		case EffEscape:
			return EffEscape
		case EffPassthrough:
			return useEffect(pkg, set, call, obj)
		default:
			return EffBorrow
		}
	}
	if fn.Pkg() == pkg.Types {
		return EffBorrow // declared here but bodyless (assembly): nothing known
	}
	return EffEscape // unknown cross-package call: assume ownership transfer
}

// argIndex returns which argument position the (climbed) expression
// occupies in the call, -1 if it is not an argument.
func argIndex(call *ast.CallExpr, arg ast.Node) int {
	for i, a := range call.Args {
		if ast.Unparen(a) == arg {
			return i
		}
	}
	return -1
}

// mayBlockIn reports whether executing the node can block on distributed
// progress: a channel send, a Comm-shaped call, or a callee that may block.
// Function literals and go statements are skipped (deferred execution), and
// a select with a default case never blocks in its communication clauses.
func mayBlockIn(pkg *Package, set *SummarySet, root ast.Node) bool {
	blocking := false
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		if blocking {
			return false
		}
		switch v := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range v.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if hasDefault {
				for _, c := range v.Body.List {
					if cc, ok := c.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							ast.Inspect(s, inspect)
						}
					}
				}
				return false
			}
		case *ast.SendStmt:
			blocking = true
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pkg.Info, v)
			if blockingCommFunc(fn) != "" {
				blocking = true
				return false
			}
			if sum := set.Of(fn); sum != nil && sum.MayBlock {
				blocking = true
				return false
			}
		}
		return true
	}
	ast.Inspect(root, inspect)
	return blocking
}

// crossSummary derives a conservative summary for a cross-package function
// from its export data: import path and signature shape. It mirrors the
// documented contracts of the msg frame arena, udpnet's PacketRing, and
// runtime.Comm; anything else returns nil and the callers fall back to
// assume-escape / assume-non-blocking. TestCrossSummary resolves every row
// against the real export data, so a rename fails a test instead of
// silently turning a row off.
func crossSummary(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	mk := func() *FuncSummary {
		return &FuncSummary{
			Params:       make([]ParamEffect, sig.Params().Len()),
			ReturnsOwned: make([]bool, sig.Results().Len()),
		}
	}
	switch {
	case isPkgFunc(fn, "internal/msg", "PutFrame"):
		s := mk()
		if len(s.Params) > 0 {
			s.Params[0] = EffRelease
		}
		return s
	case isPkgFunc(fn, "internal/msg", "Encode"):
		s := mk()
		if len(s.Params) > 0 {
			s.Params[0] = EffPassthrough
		}
		return s
	case isPkgFunc(fn, "internal/msg", "GetFrame", "GetFrameCap", "GetFrameLen"):
		s := mk()
		if len(s.ReturnsOwned) > 0 {
			s.ReturnsOwned[0] = true
		}
		return s
	case isRingMethod(fn, "Put"):
		s := mk()
		if len(s.Params) > 0 {
			s.Params[0] = EffRelease
		}
		return s
	case isRingMethod(fn, "Get"):
		s := mk()
		if len(s.ReturnsOwned) > 0 {
			s.ReturnsOwned[0] = true
		}
		return s
	case isPkgFunc(fn, "internal/runtime", "RecvAnyOf", "Run"):
		s := mk()
		s.MayBlock = true
		return s
	case isMethodOf(fn, "internal/runtime", "Matcher", "Push", "Recv", "RecvAnyOf"):
		// The transports' receive side waits inside runtime; a pushed
		// payload is retained (a refused Push leaves it with the caller).
		s := mk()
		s.MayBlock = true
		if fn.Name() == "Push" && len(s.Params) == 3 {
			s.Params[2] = EffEscape
		}
		return s
	}
	if name := blockingCommFunc(fn); name != "" {
		s := mk()
		s.MayBlock = true
		if name == "Send" && len(s.Params) == 3 {
			s.Params[2] = EffEscape
		}
		return s
	}
	return nil
}
