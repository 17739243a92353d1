package analysis

import (
	"go/ast"
	"go/types"
)

// Lockedsend flags blocking point-to-point communication performed while a
// mutex is held: channel sends and calls shaped like the runtime.Comm
// methods (Send, Recv, RecvAnyOf, Barrier). The stage engine's liveness
// argument assumes ranks always drain their inboxes; a rank that blocks in
// a transport call while holding a lock that the drain path needs is a
// distributed deadlock waiting for the right message order. Lock tracking
// is intraprocedural — sync.Mutex/RWMutex Lock/RLock pairs by receiver
// expression, with a deferred Unlock leaving the lock held for the rest of
// the function, which is exactly the window the checker guards — but the
// blocking side is interprocedural: a call to a same-package helper whose
// summary (summary.go) says it can reach a channel send or Comm call is
// flagged too, however deep the send is, as is a call into another package
// whose shape-table summary (crossSummary) may block.
var Lockedsend = &Analyzer{
	Name: "lockedsend",
	Doc:  "no channel send or blocking Comm call while holding a mutex",
	Run:  runLockedsend,
}

func runLockedsend(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkLocked(pass, fd.Body.List, map[string]bool{})
		}
	}
	return nil
}

// walkLocked abstractly executes a statement sequence, tracking which lock
// receivers are held. Branch bodies get a copy of the held set so an
// Unlock inside a branch does not clear the lock for the code after it.
func walkLocked(pass *Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if key, op := lockOp(pass.TypesInfo, st.X); key != "" {
				switch op {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				continue
			}
			scanBlocking(pass, st, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() means the lock stays held through the rest
			// of the function — which is the window being checked — so the
			// held set is left alone. The deferred call itself runs after
			// the body; don't scan it.
			if key, op := lockOp(pass.TypesInfo, st.Call); key != "" && (op == "Unlock" || op == "RUnlock") {
				continue
			}
			scanBlocking(pass, st, held)
		case *ast.BlockStmt:
			walkLocked(pass, st.List, held)
		case *ast.LabeledStmt:
			walkLocked(pass, []ast.Stmt{st.Stmt}, held)
		case *ast.IfStmt:
			scanBlockingExpr(pass, st.Cond, held)
			walkLocked(pass, st.Body.List, copyHeld(held))
			if st.Else != nil {
				walkLocked(pass, []ast.Stmt{st.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			if st.Cond != nil {
				scanBlockingExpr(pass, st.Cond, held)
			}
			walkLocked(pass, st.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			scanBlockingExpr(pass, st.X, held)
			walkLocked(pass, st.Body.List, copyHeld(held))
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			var body *ast.BlockStmt
			switch sw := st.(type) {
			case *ast.SwitchStmt:
				body = sw.Body
			case *ast.TypeSwitchStmt:
				body = sw.Body
			case *ast.SelectStmt:
				body = sw.Body
			}
			for _, c := range body.List {
				switch cl := c.(type) {
				case *ast.CaseClause:
					walkLocked(pass, cl.Body, copyHeld(held))
				case *ast.CommClause:
					if cl.Comm != nil {
						scanBlocking(pass, cl.Comm, held)
					}
					walkLocked(pass, cl.Body, copyHeld(held))
				}
			}
		case *ast.GoStmt:
			// The spawned goroutine does not inherit the caller's locks.
		default:
			scanBlocking(pass, s, held)
		}
	}
}

// scanBlocking reports every blocking communication inside the node while
// any lock is held. Function literals are skipped: they execute later,
// under whatever locks their caller holds then.
func scanBlocking(pass *Pass, n ast.Node, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	lock := anyHeld(held)
	ast.Inspect(n, func(c ast.Node) bool {
		switch v := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pass.Reportf(v.Arrow, "channel send while holding %s: a blocked send under a lock can deadlock the exchange", lock)
		case *ast.CallExpr:
			if name := blockingCommName(pass.TypesInfo, v); name != "" {
				pass.Reportf(v.Pos(), "Comm.%s while holding %s: transport calls block on remote progress and must not run under a lock", name, lock)
			} else if fn := calleeFunc(pass.TypesInfo, v); fn != nil {
				// Interprocedural: a same-package helper whose summary says
				// it can reach a channel send or Comm call blocks just the
				// same, however many frames deep the send is, and so does a
				// cross-package call the shape table marks MayBlock
				// (runtime.RecvAnyOf, runtime.Run, Matcher.Push).
				if sum := pass.Summaries().Of(fn); sum != nil && sum.MayBlock {
					pass.Reportf(v.Pos(), "call to %s, which may block on a channel send or Comm call, while holding %s", fn.Name(), lock)
				}
			}
		}
		return true
	})
}

func scanBlockingExpr(pass *Pass, e ast.Expr, held map[string]bool) {
	scanBlocking(pass, &ast.ExprStmt{X: e}, held)
}

// lockOp matches mu.Lock / mu.RLock / mu.Unlock / mu.RUnlock calls on
// sync.Mutex and sync.RWMutex (including embedded ones) and returns the
// receiver expression as the lock key.
func lockOp(info *types.Info, e ast.Expr) (key, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k := range held {
		c[k] = true
	}
	return c
}

func anyHeld(held map[string]bool) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// blockingCommName matches calls shaped like the runtime.Comm transport
// methods and returns the method name, "" otherwise.
func blockingCommName(info *types.Info, call *ast.CallExpr) string {
	return blockingCommFunc(calleeFunc(info, call))
}

// blockingCommFunc matches a function shaped like a runtime.Comm transport
// method and returns the method name, "" otherwise.
func blockingCommFunc(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	p, r := sig.Params().Len(), sig.Results().Len()
	switch fn.Name() {
	case "Send":
		if p == 3 && r == 1 && isByteSlice(sig.Params().At(2).Type()) {
			return "Send"
		}
	case "Recv":
		if p == 2 && r == 2 && isByteSlice(sig.Results().At(0).Type()) {
			return "Recv"
		}
	case "RecvAnyOf":
		if p == 2 && r == 3 {
			return "RecvAnyOf"
		}
	case "Barrier":
		if p == 0 && r == 1 {
			return "Barrier"
		}
	}
	return ""
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	return ok && types.Identical(s.Elem(), types.Typ[types.Byte])
}
