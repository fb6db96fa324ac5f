package lint

import (
	"go/ast"
	"go/types"
)

// CtxDeadline enforces the RPC failure model (DESIGN.md §7):
// every RPC crossing an entity boundary must be bounded, so a wedged peer
// degrades the caller instead of wedging it. A ReconnectClient bounds each
// call itself (rpc.OpBudget); a raw rpc.Client is bounded only by its
// caller's context, so the analyzer checks each call site on rpc.Client:
//
//   - the deadline-less convenience method Call is rejected outright in
//     production code (it exists for tests);
//   - for CallCtx/CallIdem, the context argument must not provably lack a
//     deadline. "Provably" is syntactic and local: context.Background()/
//     TODO(), possibly laundered through context.WithValue/WithCancel or
//     obs.ContextWith, or a local variable assigned from those. Contexts
//     received as parameters are assumed bounded by the caller (the rule
//     then applies at that caller).
var CtxDeadline = &Analyzer{
	Name: "ctxdeadline",
	Doc: "every rpc.Client call site must receive a context that can " +
		"carry a deadline: derive it from context.WithTimeout or pass the " +
		"caller's bounded context",
	Run: runCtxDeadline,
}

// callerBoundedClient is the one client type bounded by its caller's
// context alone.
const callerBoundedClient = "cloudmonatt/internal/rpc.Client"

var deadlineMethods = map[string]bool{
	"CallCtx":  true,
	"CallIdem": true,
}

func runCtxDeadline(pass *Pass) {
	for _, f := range pass.Files {
		// Track the enclosing function body so local assignments of the
		// context variable can be chased.
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method := methodOf(pass.Info, call)
			if recv != callerBoundedClient {
				return true
			}
			if method == "Call" {
				pass.Reportf(call.Pos(),
					"%s.Call carries no context; use CallCtx/CallIdem with a deadline-carrying context",
					shortType(recv))
				return true
			}
			if !deadlineMethods[method] || len(call.Args) == 0 {
				return true
			}
			if why := unboundedCtx(pass, enclosing(stack), call.Args[0], 0); why != "" {
				pass.Reportf(call.Args[0].Pos(),
					"context passed to %s.%s provably carries no deadline (%s); "+
						"derive it with context.WithTimeout or pass the caller's bounded context",
					shortType(recv), method, why)
			}
			return true
		})
	}
}

func shortType(qualified string) string {
	for i := len(qualified) - 1; i >= 0; i-- {
		if qualified[i] == '.' {
			return qualified[i+1:]
		}
	}
	return qualified
}

// enclosing returns the body of the innermost function declaration or
// literal on the stack.
func enclosing(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// unboundedCtx returns a non-empty reason when expr provably evaluates to
// a context with no deadline; "" when a deadline is present or unknowable.
func unboundedCtx(pass *Pass, scope *ast.BlockStmt, expr ast.Expr, depth int) string {
	if depth > 8 {
		return ""
	}
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.CallExpr:
		pkg, fn := calleeOf(pass.Info, e)
		switch {
		case pkg == "context" && (fn == "Background" || fn == "TODO"):
			return "context." + fn + "()"
		case pkg == "context" && (fn == "WithValue" || fn == "WithCancel"):
			// Neither adds a deadline; inspect the parent.
			if len(e.Args) > 0 {
				return unboundedCtx(pass, scope, e.Args[0], depth+1)
			}
		case pkg == "cloudmonatt/internal/obs" && fn == "ContextWith":
			if len(e.Args) > 0 {
				return unboundedCtx(pass, scope, e.Args[0], depth+1)
			}
		}
		return ""
	case *ast.Ident:
		obj := pass.Info.Uses[e]
		v, ok := obj.(*types.Var)
		if !ok || scope == nil {
			return ""
		}
		return unboundedVar(pass, scope, v, depth)
	}
	return ""
}

// unboundedVar chases local assignments of v inside scope. All observed
// assignments must be provably unbounded for the variable to count as
// unbounded (a single WithTimeout assignment clears it); a variable with
// no visible assignment (parameter, captured binding) is assumed bounded.
func unboundedVar(pass *Pass, scope *ast.BlockStmt, v *types.Var, depth int) string {
	reason := ""
	ast.Inspect(scope, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		idx := -1
		for i, lhs := range assign.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if pass.Info.Defs[id] == v || pass.Info.Uses[id] == v {
					idx = i
				}
			}
		}
		if idx < 0 {
			return true
		}
		rhs, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			reason = ""
			return false
		}
		pkg, fn := calleeOf(pass.Info, rhs)
		switch {
		case pkg == "context" && (fn == "WithTimeout" || fn == "WithDeadline"):
			reason = ""
			return false
		case pkg == "context" && (fn == "Background" || fn == "TODO"):
			reason = v.Name() + " := context." + fn + "()"
		case pkg == "context" && (fn == "WithCancel" || fn == "WithValue"),
			pkg == "cloudmonatt/internal/obs" && fn == "ContextWith":
			if len(rhs.Args) > 0 {
				if r := unboundedCtx(pass, scope, rhs.Args[0], depth+1); r != "" {
					reason = v.Name() + " derived from " + r
				} else {
					reason = ""
					return false
				}
			}
		default:
			// Unknown producer: assume bounded.
			reason = ""
			return false
		}
		return true
	})
	return reason
}
