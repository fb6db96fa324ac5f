package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces two lock-discipline rules that the paper's
// monitor-availability argument quietly depends on:
//
//  1. No mutex is held across an operation that can park the goroutine
//     indefinitely — an RPC round-trip, a channel send or receive, a
//     select without default, a WaitGroup wait. A lock
//     held across an RPC turns one slow peer into a stalled shard. The
//     documented op-serializer locks (opSerializers in the taxonomy)
//     exist precisely to serialize whole operations and are exempt.
//
//  2. Known lock pairs are acquired in their documented order
//     (lockOrder in the taxonomy): acquiring the senior lock while the
//     junior one is held is a latent deadlock.
//
// Whether a call blocks is mostly not visible at the call site, so the
// facts pass computes a transitive "blocks" footprint per function:
// direct channel operations and taxonomy-listed blockers seed it, a
// same-package fixed point plus imported facts extend it through helper
// layers, and interface methods carrying a "lockorder: blocking" doc
// marker (e.g. the privacy-CA certification round-trip) export it
// contractually, since no implementation is visible to the caller.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "no mutex held across an RPC call, channel operation, or verifier wait " +
		"(op-serializer locks exempt); documented lock pairs acquired in order",
	Run:   runLockOrder,
	Facts: lockOrderFacts,
}

// blocksFact marks a function that can park its caller indefinitely.
type blocksFact struct {
	Why string `json:"why"` // e.g. "rpc call", "channel send"
}

// --- facts: the transitive blocking footprint ---

func lockOrderFacts(pass *Pass) {
	// Contractually blocking interface methods: the declaration is the
	// only thing a caller sees, so the marker rides on it.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, m := range it.Methods.List {
				if len(m.Names) == 0 {
					continue // embedded interface
				}
				if hasMarker(m.Doc, blockingMarker) || hasMarker(m.Comment, blockingMarker) {
					for _, name := range m.Names {
						if obj := pass.Info.ObjectOf(name); obj != nil {
							pass.ExportFact(obj, "blocks", blocksFact{Why: "contractually blocking (" + name.Name + ")"})
						}
					}
				}
			}
			return true
		})
	}
	// Function footprints, to a same-package fixed point so helper chains
	// settle regardless of declaration order.
	for i := 0; i < 10; i++ {
		changed := false
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj := pass.Info.ObjectOf(fd.Name)
				if obj == nil {
					continue
				}
				var prev blocksFact
				if pass.ImportFact(obj, "blocks", &prev) {
					continue
				}
				if why := firstBlocking(pass, fd.Body); why != "" {
					pass.ExportFact(obj, "blocks", blocksFact{Why: why})
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// firstBlocking returns a description of the first operation in body that
// can park the goroutine, or "". Function literals and go statements are
// skipped: a spawned goroutine's waits are its own.
func firstBlocking(pass *Pass, body *ast.BlockStmt) string {
	var why string
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		if why != "" || n == nil {
			return
		}
		switch s := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return
		case *ast.SendStmt:
			why = "channel send"
			return
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				why = "channel receive"
				return
			}
		case *ast.RangeStmt:
			if isChanType(pass.Info, s.X) {
				why = "channel receive"
				return
			}
		case *ast.SelectStmt:
			if !selectHasDefault(s) {
				why = "blocking select"
				return
			}
			// Non-blocking select: the comm expressions cannot park, but
			// the clause bodies run afterwards and can.
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, st := range cc.Body {
						walk(st)
					}
				}
			}
			return
		case *ast.CallExpr:
			if w := callBlocks(pass, s); w != "" {
				why = w
				return
			}
		}
		ast.Inspect(n, func(child ast.Node) bool {
			if why != "" || child == nil || child == n {
				return child == n
			}
			walk(child)
			return false
		})
	}
	walk(body)
	return why
}

// callBlocks reports why a call can block, or "".
func callBlocks(pass *Pass, call *ast.CallExpr) string {
	if recv, method := methodOf(pass.Info, call); recv != "" {
		if why, ok := blockingMethods[recv+"."+method]; ok {
			return why
		}
	}
	if pkg, name := calleeOf(pass.Info, call); pkg != "" {
		if why, ok := blockingFuncs[pkg+"."+name]; ok {
			return why
		}
	}
	if obj := calleeObject(pass.Info, call); obj != nil {
		var fact blocksFact
		if pass.ImportFact(obj, "blocks", &fact) {
			return fact.Why + " in " + obj.Name()
		}
	}
	return ""
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func isChanType(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// --- diagnostics: held-lock walk ---

// heldLock records one acquisition.
type heldLock struct {
	key string
	pos token.Pos
}

type heldSet map[string]heldLock

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func runLockOrder(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			walkLocks(pass, fd.Body, make(heldSet))
		}
	}
}

// walkLocks walks a block linearly, tracking acquisitions. Nested control
// flow is walked with a copy of the held set: locks acquired inside a
// branch are checked inside it, and the conservative assumption after the
// branch is the state before it (the repo's style pairs Lock with a
// same-block Unlock or defer).
func walkLocks(pass *Pass, block *ast.BlockStmt, held heldSet) {
	for _, stmt := range block.List {
		walkLockStmt(pass, stmt, held)
	}
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, held heldSet) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		scanLockExpr(pass, s.X, held)
	case *ast.SendStmt:
		reportBlocked(pass, s.Pos(), "channel send", held)
		scanLockExpr(pass, s.Chan, held)
		scanLockExpr(pass, s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			scanLockExpr(pass, e, held)
		}
		for _, e := range s.Lhs {
			scanLockExpr(pass, e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						scanLockExpr(pass, v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			scanLockExpr(pass, e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		scanLockExpr(pass, s.Cond, held)
		walkLocks(pass, s.Body, held.clone())
		if s.Else != nil {
			walkLockStmt(pass, s.Else, held.clone())
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			scanLockExpr(pass, s.Cond, held)
		}
		walkLocks(pass, s.Body, held.clone())
	case *ast.RangeStmt:
		if isChanType(pass.Info, s.X) {
			reportBlocked(pass, s.Pos(), "channel receive", held)
		}
		scanLockExpr(pass, s.X, held)
		walkLocks(pass, s.Body, held.clone())
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, held)
		}
		if s.Tag != nil {
			scanLockExpr(pass, s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := held.clone()
				for _, st := range cc.Body {
					walkLockStmt(pass, st, inner)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				inner := held.clone()
				for _, st := range cc.Body {
					walkLockStmt(pass, st, inner)
				}
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			reportBlocked(pass, s.Pos(), "blocking select", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				inner := held.clone()
				for _, st := range cc.Body {
					walkLockStmt(pass, st, inner)
				}
			}
		}
	case *ast.BlockStmt:
		walkLocks(pass, s, held.clone())
	case *ast.LabeledStmt:
		walkLockStmt(pass, s.Stmt, held)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end — exactly
		// what the linear walk already assumes — so deferred unlocks need
		// no action. Other deferred calls run at return, after the body's
		// own unlocks would have run; skip them.
		if _, _, isOp := mutexOp(pass.Info, s.Call); !isOp {
			for _, a := range s.Call.Args {
				scanLockExpr(pass, a, held)
			}
		}
	case *ast.GoStmt:
		// A spawned goroutine starts with nothing held.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			walkLocks(pass, lit.Body, make(heldSet))
		}
		for _, a := range s.Call.Args {
			scanLockExpr(pass, a, held)
		}
	}
}

// scanLockExpr scans one expression tree for lock operations, blocking
// calls, and channel receives, updating held in place.
func scanLockExpr(pass *Pass, expr ast.Expr, held heldSet) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			walkLocks(pass, e.Body, make(heldSet))
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				reportBlocked(pass, e.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if key, op, ok := mutexOp(pass.Info, e); ok {
				applyMutexOp(pass, e.Pos(), key, op, held)
				return false
			}
			if why := callBlocks(pass, e); why != "" {
				reportBlocked(pass, e.Pos(), why, held)
			}
		}
		return true
	})
}

// mutexOp recognizes calls to sync.Mutex / sync.RWMutex methods and
// returns the lock's stable key and the method name.
func mutexOp(info *types.Info, call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	obj, isFunc := info.ObjectOf(sel.Sel).(*types.Func)
	if !isFunc || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := obj.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	named := namedOf(recv.Type())
	if named == nil {
		return "", "", false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", "", false
	}
	switch obj.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		return lockKeyOf(info, sel.X), obj.Name(), true
	}
	return "", "", false
}

// lockKeyOf names a lock by "Type.field" when it is a field of a named
// struct (matching the taxonomy's opSerializers / lockOrder keys), or by
// its bare identifier otherwise.
func lockKeyOf(info *types.Info, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if tv, ok := info.Types[e.X]; ok {
			if named := namedOf(tv.Type); named != nil {
				return named.Obj().Name() + "." + e.Sel.Name
			}
		}
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return "lock"
}

func applyMutexOp(pass *Pass, pos token.Pos, key, op string, held heldSet) {
	switch op {
	case "Lock", "RLock", "TryLock", "TryRLock":
		// Order rule: never acquire the senior lock of a documented pair
		// while its junior is held.
		for _, pair := range lockOrder {
			if pair[0] == key {
				if junior, bad := held[pair[1]]; bad {
					_ = junior
					pass.Reportf(pos,
						"%s acquired while %s is held; the documented order is %s before %s — "+
							"acquiring them inverted is a latent deadlock", key, pair[1], pair[0], pair[1])
				}
			}
		}
		held[key] = heldLock{key: key, pos: pos}
	case "Unlock", "RUnlock":
		delete(held, key)
	}
}

// reportBlocked fires when a blocking operation happens with a
// non-op-serializer lock held.
func reportBlocked(pass *Pass, pos token.Pos, why string, held heldSet) {
	for key := range held {
		if opSerializers[key] {
			continue
		}
		pass.Reportf(pos,
			"%s while %s is held; a parked goroutine keeps the lock and stalls every "+
				"contender — release it first, or document the lock as an op-serializer", why, key)
		return
	}
}
