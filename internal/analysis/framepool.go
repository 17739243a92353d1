package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Framepool enforces the frame-arena ownership discipline documented in
// internal/msg/pool.go: every buffer obtained from msg.GetFrame,
// msg.GetFrameCap, or msg.GetFrameLen has a single owner and must, on every
// path, either be recycled with msg.PutFrame or handed off — to a transport
// Send (ownership transfers to the transport or the receiving rank under
// the SendRetains contract), across a channel, into a longer-lived
// structure, or out of the function. It additionally flags uses after an
// unconditional PutFrame (including double puts) and PutFrame of a reslice
// that drops the buffer's front — cap shrinks, so the buffer re-enters the
// arena in a lower size class than it was allocated from.
//
// The ownership model is interprocedural within a package: every call to a
// same-package function is classified by that function's computed summary
// (summary.go) — the callee may release the buffer, hand it off, pass it
// through to its result, or merely borrow it — and helpers that mint and
// return pooled buffers are mint sites in their callers. Builtin reads
// (len, cap, copy) and msg codec calls borrow; unknown cross-package calls
// and stores into non-local memory take ownership.
//
// The same single-holder discipline governs udpnet's packet-buffer ring
// (internal/transport/udpnet.PacketRing): buffers minted by Get must reach
// Put (or escape into the window/backlog structures) on every path, must
// not be used after Put, and must not be Put as a front-dropping reslice —
// the ring rejects buffers whose capacity changed. Get/Put sites are
// tracked with the same machinery as GetFrame*/PutFrame.
var Framepool = &Analyzer{
	Name: "framepool",
	Doc:  "check that every pooled buffer (msg frame arena, udpnet packet ring) is released or handed off on all paths",
	Run:  runFramepool,
}

type useKind int

const (
	useNeutral useKind = iota // borrow: the buffer stays owned here
	useRelease                // PutFrame or transport Send: ownership resolved
	useEscape                 // stored, sent, returned: owned elsewhere now
)

// frameUse is one classified occurrence of a tracked buffer variable.
type frameUse struct {
	id   *ast.Ident
	kind useKind
}

func runFramepool(pass *Pass) error {
	for _, file := range pass.Files {
		parents := buildParents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isFrameSource(pass.TypesInfo, call) {
				checkFrameSource(pass, parents, call, 0)
			} else if idx, ok := summaryMint(pass, call); ok {
				// A same-package helper whose summary says it returns a
				// freshly minted pooled buffer is a mint site too — the
				// exact shape the PR-5 hardcoded source set missed.
				checkFrameSource(pass, parents, call, idx)
			}
			return true
		})
	}
	return nil
}

// summaryMint reports whether the call returns an owned pooled buffer per
// the callee's summary, and at which result index. Calls that receive a
// mint among their own arguments are skipped: the inner mint site is
// already tracked and climbs through the call (passthrough).
func summaryMint(pass *Pass, call *ast.CallExpr) (int, bool) {
	sum := pass.Summaries().Of(calleeFunc(pass.TypesInfo, call))
	if sum == nil {
		return 0, false
	}
	idx := -1
	for i, o := range sum.ReturnsOwned {
		if o {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0, false
	}
	for _, arg := range call.Args {
		if exprContainsMint(pass.pkg, pass.Summaries(), arg) {
			return 0, false
		}
	}
	return idx, true
}

// isFrameSource reports whether the call mints a pooled buffer: a msg
// frame-arena Get or a udpnet PacketRing.Get.
func isFrameSource(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return isPkgFunc(fn, "internal/msg", "GetFrame", "GetFrameCap", "GetFrameLen") ||
		isRingMethod(fn, "Get")
}

// isRingMethod reports whether fn is the named method on udpnet's
// PacketRing (pointer or value receiver).
func isRingMethod(fn *types.Func, name string) bool {
	return isMethodOf(fn, "internal/transport/udpnet", "PacketRing", name)
}

// isMethodOf reports whether fn is one of the named methods (pointer or
// value receiver) of type typeName in a package path ending in pathSuffix.
func isMethodOf(fn *types.Func, pathSuffix, typeName string, names ...string) bool {
	if !isPkgFunc(fn, pathSuffix, names...) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == typeName
}

// checkFrameSource follows one mint call (GetFrame*, ring Get, or a helper
// whose summary returns an owned buffer at result ownedIdx) to its binding
// and runs the ownership analysis on the bound variable.
func checkFrameSource(pass *Pass, parents map[ast.Node]ast.Node, src *ast.CallExpr, ownedIdx int) {
	info := pass.TypesInfo

	// The idiomatic mint-and-encode composition passes the fresh buffer
	// straight to a passthrough callee and binds the (possibly grown)
	// result:
	//     buf := msg.Encode(msg.GetFrameCap(n), &m)
	// The same holds for any call whose summary says the parameter flows to
	// the result (append-shaped builders). Track the outermost such
	// expression; reslices of the fresh buffer (GetFrameCap(n)[:n]) are
	// still the same buffer.
	expr := ast.Node(src)
	for {
		p := parents[expr]
		if pe, ok := p.(*ast.ParenExpr); ok {
			expr = pe
			continue
		}
		if se, ok := p.(*ast.SliceExpr); ok && ast.Unparen(se.X) == expr {
			expr = se
			continue
		}
		if c, ok := p.(*ast.CallExpr); ok {
			if i := argIndex(c, expr); i >= 0 {
				fn := calleeFunc(info, c)
				if sum := pass.Summaries().Of(fn); sum != nil && sum.effectAt(i, fn) == EffPassthrough {
					expr = c
					ownedIdx = 0 // passthrough callees have one []byte result
					continue
				}
			}
		}
		break
	}

	switch p := parents[expr].(type) {
	case *ast.AssignStmt:
		var target ast.Expr
		if len(p.Rhs) == 1 && len(p.Lhs) > 1 && ast.Unparen(p.Rhs[0]) == expr {
			// Tuple binding: buf, err := helper() — the owned result index
			// picks the variable to track.
			if ownedIdx < len(p.Lhs) {
				target = p.Lhs[ownedIdx]
			}
		} else {
			for i, rhs := range p.Rhs {
				if ast.Unparen(rhs) == expr && i < len(p.Lhs) {
					target = p.Lhs[i]
					break
				}
			}
		}
		if target == nil {
			return
		}
		id, ok := target.(*ast.Ident)
		if !ok {
			// Stored straight into a slice slot, field, or deref:
			// ownership moves into the structure.
			return
		}
		if id.Name == "_" {
			pass.Reportf(src.Pos(), "pooled frame is dropped without PutFrame")
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != pass.Pkg.Scope() {
			analyzeFrameVar(pass, parents, v, p)
		}
		// Bound to a global or field: lifetime is managed elsewhere.
		return
	case *ast.ValueSpec:
		var name *ast.Ident
		if len(p.Values) == 1 && len(p.Names) > 1 && ast.Unparen(p.Values[0]) == expr {
			if ownedIdx < len(p.Names) {
				name = p.Names[ownedIdx]
			}
		} else {
			for i, val := range p.Values {
				if ast.Unparen(val) == expr && i < len(p.Names) {
					name = p.Names[i]
					break
				}
			}
		}
		if name == nil {
			return
		}
		if v, ok := info.Defs[name].(*types.Var); ok && !v.IsField() {
			analyzeFrameVar(pass, parents, v, declStmtFor(parents, p))
		}
		return
	case *ast.CallExpr:
		// Passed straight to a releasing or owning call:
		// c.Send(to, tag, msg.Encode(msg.GetFrameCap(n), &m)) — fine.
		if kind := classifyCallUse(pass, parents, p, expr); kind == useNeutral {
			pass.Reportf(src.Pos(), "pooled frame is passed to a borrowing call and never released")
		}
	case *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		// Ownership leaves the function or moves into a structure.
	default:
		pass.Reportf(src.Pos(), "pooled frame is never released (PutFrame it or Send it)")
	}
}

// declStmtFor finds the DeclStmt wrapping a ValueSpec, nil for file-level
// declarations.
func declStmtFor(parents map[ast.Node]ast.Node, spec *ast.ValueSpec) ast.Stmt {
	gd, _ := parents[spec].(*ast.GenDecl)
	if gd == nil {
		return nil
	}
	ds, _ := parents[gd].(*ast.DeclStmt)
	return ds
}

// analyzeFrameVar runs the path-sensitive ownership analysis for one
// tracked buffer variable from its defining statement to the end of the
// enclosing block.
func analyzeFrameVar(pass *Pass, parents map[ast.Node]ast.Node, obj *types.Var, def ast.Stmt) {
	if def == nil {
		return
	}
	block := enclosingBlock(parents, def)
	if block == nil {
		return
	}
	start := -1
	for i, s := range block.List {
		if s == def {
			start = i
			break
		}
	}
	if start < 0 {
		return
	}
	region := block.List[start+1:]

	// Classify every use of the variable in the region.
	uses := make(map[*ast.Ident]useKind)
	anyResolved := false
	for _, s := range region {
		ast.Inspect(s, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[id] != obj {
				return true
			}
			k := classifyUse(pass, parents, id)
			uses[id] = k
			if k != useNeutral {
				anyResolved = true
			}
			return true
		})
	}
	if !anyResolved {
		pass.Reportf(def.Pos(), "pooled frame %s is never released: no PutFrame, Send, or ownership hand-off in scope", obj.Name())
		return
	}

	fa := &frameAnalysis{pass: pass, obj: obj, uses: uses}
	released := fa.evalSeq(region, false)
	if !released {
		pass.Reportf(def.Pos(), "pooled frame %s is not released on every path through this block", obj.Name())
	}
}

// enclosingBlock walks up to the nearest BlockStmt containing the node.
func enclosingBlock(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for p := parents[n]; p != nil; p = parents[p] {
		if b, ok := p.(*ast.BlockStmt); ok {
			return b
		}
	}
	return nil
}

// classifyUse decides what one occurrence of the tracked variable does to
// its ownership.
func classifyUse(pass *Pass, parents map[ast.Node]ast.Node, id *ast.Ident) useKind {
	return classifyFrom(pass, parents, id, pass.TypesInfo.Uses[id], id.Name)
}

// classifyFrom classifies the context of an expression standing for the
// tracked buffer — the identifier itself, or a call (append, builder)
// whose result is the same buffer.
func classifyFrom(pass *Pass, parents map[ast.Node]ast.Node, start ast.Node, obj types.Object, name string) useKind {
	info := pass.TypesInfo

	// Climb through parens and slicings: PutFrame(v[:0]) releases v. A
	// reslice that drops the front loses the pool size class — flagged at
	// the PutFrame below.
	expr := start
	slicedFront := false
	for {
		p := parents[expr]
		if pe, ok := p.(*ast.ParenExpr); ok {
			expr = pe
			continue
		}
		if se, ok := p.(*ast.SliceExpr); ok && ast.Unparen(se.X) == expr {
			if se.Low != nil && !isZeroLiteral(se.Low) {
				slicedFront = true
			}
			expr = se
			continue
		}
		break
	}

	switch p := parents[expr].(type) {
	case *ast.CallExpr:
		for _, arg := range p.Args {
			if ast.Unparen(arg) == expr {
				kind := classifyCallUse(pass, parents, p, expr)
				if kind == useRelease && slicedFront && isPutFrame(info, p) {
					pass.Reportf(p.Pos(), "PutFrame of resliced %s drops the buffer's front and its pool size class; put the original slice", name)
				}
				return kind
			}
		}
		return useNeutral // v(...) or v as the callee: not an ownership event
	case *ast.SendStmt:
		if ast.Unparen(p.Value) == expr {
			return useEscape
		}
		return useNeutral
	case *ast.ReturnStmt:
		return useEscape
	case *ast.CompositeLit, *ast.KeyValueExpr:
		return useEscape
	case *ast.AssignStmt:
		for i, rhs := range p.Rhs {
			if ast.Unparen(rhs) != expr || i >= len(p.Lhs) {
				continue
			}
			switch lhs := p.Lhs[i].(type) {
			case *ast.Ident:
				if obj != nil && info.Uses[lhs] == obj {
					return useNeutral // self reslice or regrow: v = v[:n], v = append(v, ...)
				}
				return useEscape // aliased into another variable
			default:
				_ = lhs
				return useEscape // stored into a field, slot, or deref
			}
		}
		return useNeutral // v appears on the LHS or inside an index
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return useEscape // address taken
		}
		return useNeutral
	default:
		return useNeutral
	}
}

// classifyCallUse decides what passing the tracked buffer to this call does
// to its ownership. arg is the (climbed) argument expression.
func classifyCallUse(pass *Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr, arg ast.Node) useKind {
	info := pass.TypesInfo
	if isPutFrame(info, call) {
		return useRelease
	}
	if isCommSend(info, call) {
		return useRelease
	}
	switch builtinName(info, call) {
	case "len", "cap", "copy", "clear", "min", "max", "print", "println":
		return useNeutral
	case "append":
		if len(call.Args) > 0 && ast.Unparen(call.Args[0]) == arg {
			// append(b, ...): the result is (a possibly regrown alias of)
			// the tracked buffer, so how the append call itself is used —
			// self-assigned, stored, returned — decides ownership.
			id := firstIdentIn(arg)
			if id == nil {
				return useEscape
			}
			return classifyFrom(pass, parents, call, info.Uses[id], id.Name)
		}
		if call.Ellipsis != token.NoPos {
			return useNeutral // append(x, v...): bytes are copied out
		}
		return useEscape // append(frames, v): retained by the slice
	case "":
		// Not a builtin; fall through to function classification.
	default:
		return useNeutral
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return useEscape // call through a function value: assume it keeps it
	}
	if isPkgFunc(fn, "internal/msg", "Decode", "DecodeInto", "Float64View", "EncodedSize") {
		// Codec reads alias the buffer but ownership stays here.
		return useNeutral
	}
	if sum := pass.Summaries().Of(fn); sum != nil {
		if idx := argIndex(call, arg); idx >= 0 {
			switch sum.effectAt(idx, fn) {
			case EffRelease:
				return useRelease
			case EffEscape:
				return useEscape
			case EffPassthrough:
				// The buffer flows to the callee's result (msg.Encode,
				// append-shaped builders): how the call's own value is
				// used decides ownership, exactly like append above.
				id := firstIdentIn(arg)
				if id == nil {
					return useEscape
				}
				return classifyFrom(pass, parents, call, info.Uses[id], id.Name)
			default:
				return useNeutral // summarized borrow: the buffer stays here
			}
		}
	}
	if fn.Pkg() == pass.Pkg {
		return useNeutral // bodyless same-package func: nothing to summarize
	}
	return useEscape // unknown cross-package call: assume ownership transfer
}

// firstIdentIn returns the first identifier inside the expression (the
// tracked variable for climbed slice/paren chains).
func firstIdentIn(n ast.Node) *ast.Ident {
	var id *ast.Ident
	ast.Inspect(n, func(c ast.Node) bool {
		if id != nil {
			return false
		}
		if i, ok := c.(*ast.Ident); ok {
			id = i
			return false
		}
		return true
	})
	return id
}

func isPutFrame(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return isPkgFunc(fn, "internal/msg", "PutFrame") || isRingMethod(fn, "Put")
}

// isCommSend matches the transport send shape of runtime.Comm:
// Send(to, tag int, payload []byte) error. Ownership of the payload
// transfers under the SendRetains contract.
func isCommSend(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Send" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	params := sig.Params()
	if params.Len() != 3 || sig.Results().Len() != 1 {
		return false
	}
	s, ok := params.At(2).Type().(*types.Slice)
	return ok && types.Identical(s.Elem(), types.Typ[types.Byte])
}

func isZeroLiteral(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}

// frameAnalysis is the path evaluator state for one tracked variable.
type frameAnalysis struct {
	pass *Pass
	obj  *types.Var
	uses map[*ast.Ident]useKind
}

// stmtResolves reports whether the statement's subtree contains a use that
// releases or escapes the buffer.
func (fa *frameAnalysis) stmtResolves(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && fa.uses[id] > useNeutral {
			found = true
		}
		return !found
	})
	return found
}

// exprResolves reports whether the expression contains a releasing or
// escaping use of the buffer.
func (fa *frameAnalysis) exprResolves(e ast.Expr) bool {
	return e != nil && fa.stmtResolves(&ast.ExprStmt{X: e})
}

// stmtUses reports whether the statement's subtree mentions the variable.
func (fa *frameAnalysis) stmtUses(s ast.Stmt) bool {
	return usesObject(fa.pass.TypesInfo, s, fa.obj)
}

// stmtIsPut reports whether the statement is an unconditional release of
// the tracked buffer — msg.PutFrame(v...) itself, or a call to a
// same-package helper whose summary releases the argument position the
// buffer occupies. Later uses are use-after-free either way.
func (fa *frameAnalysis) stmtIsPut(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok || !fa.stmtUses(s) {
		return false
	}
	if isPutFrame(fa.pass.TypesInfo, call) {
		return true
	}
	fn := calleeFunc(fa.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() != fa.pass.Pkg {
		return false
	}
	sum := fa.pass.Summaries().Of(fn)
	if sum == nil {
		return false
	}
	for i, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok &&
			fa.pass.TypesInfo.Uses[id] == types.Object(fa.obj) &&
			sum.effectAt(i, fn) == EffRelease {
			return true
		}
	}
	return false
}

// evalSeq abstractly executes a statement sequence. It returns whether the
// buffer is definitely released when the sequence falls through, and
// reports leaks on return paths and uses after an unconditional PutFrame.
func (fa *frameAnalysis) evalSeq(stmts []ast.Stmt, released bool) bool {
	putDone := false
	for _, s := range stmts {
		if putDone && fa.stmtUses(s) {
			if fa.stmtIsPut(s) {
				fa.pass.Reportf(s.Pos(), "double PutFrame of %s", fa.obj.Name())
			} else {
				fa.pass.Reportf(s.Pos(), "use of %s after PutFrame recycled it", fa.obj.Name())
			}
			continue
		}
		switch st := s.(type) {
		case *ast.ReturnStmt:
			if !released && !fa.stmtResolves(st) {
				fa.pass.Reportf(st.Pos(), "pooled frame %s leaks on this return path", fa.obj.Name())
			}
			return true // fallthrough below is unreachable
		case *ast.BlockStmt:
			released = fa.evalSeq(st.List, released)
		case *ast.LabeledStmt:
			released = fa.evalSeq([]ast.Stmt{st.Stmt}, released)
		case *ast.IfStmt:
			// An escape in the condition (e.g. `if !ib.push(frame)`)
			// resolves ownership before either branch runs.
			if st.Init != nil && fa.stmtResolves(st.Init) || fa.exprResolves(st.Cond) {
				released = true
			}
			thenR := fa.evalSeq(st.Body.List, released)
			elseR := released
			if st.Else != nil {
				elseR = fa.evalSeq([]ast.Stmt{st.Else}, released)
			}
			released = released || (thenR && elseR)
		case *ast.ForStmt:
			fa.evalSeq(st.Body.List, released) // report nested leaks; zero-trip loops release nothing
		case *ast.RangeStmt:
			fa.evalSeq(st.Body.List, released)
		case *ast.SwitchStmt:
			if st.Init != nil && fa.stmtResolves(st.Init) || st.Tag != nil && fa.exprResolves(st.Tag) {
				released = true
			}
			released = fa.evalClauses(st.Body, released)
		case *ast.TypeSwitchStmt:
			released = fa.evalClauses(st.Body, released)
		case *ast.SelectStmt:
			released = fa.evalClauses(st.Body, released)
		case *ast.DeferStmt:
			if fa.stmtResolves(st) {
				released = true
			}
		default:
			if fa.stmtResolves(s) {
				released = true
				putDone = fa.stmtIsPut(s)
			}
		}
	}
	return released
}

// evalClauses evaluates a switch/select body: the sequence releases on
// fallthrough only if every clause does and (for switches) a default exists.
func (fa *frameAnalysis) evalClauses(body *ast.BlockStmt, released bool) bool {
	if released {
		// Still walk for nested reporting.
		for _, c := range body.List {
			switch cl := c.(type) {
			case *ast.CaseClause:
				fa.evalSeq(cl.Body, released)
			case *ast.CommClause:
				fa.evalSeq(cl.Body, released)
			}
		}
		return true
	}
	all := true
	hasDefault := false
	for _, c := range body.List {
		switch cl := c.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			all = fa.evalSeq(cl.Body, released) && all
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			all = fa.evalSeq(cl.Body, released) && all
		}
	}
	return all && hasDefault
}

// buildParents records each node's syntactic parent for upward walks.
func buildParents(file *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
