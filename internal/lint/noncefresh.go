package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NonceFresh enforces the paper's freshness discipline mechanically
// (§4.2: every attestation hop is bound by a fresh nonce N1/N2/N3):
//
//  1. RPC methods in the fresh-nonce taxonomy (freshNonceMethods) must be
//     invoked through ReconnectClient.CallFresh, which rebuilds the
//     request — and therefore the embedded nonce — on every retry attempt.
//     Call/CallCtx/CallIdem would re-send the same nonce, which the peer's
//     replay cache rightly rejects, turning a transient network fault into
//     a permanent attestation failure (or worse, training operators to
//     disable replay protection).
//
//  2. A nonce-typed value declared outside a loop must not be fed back
//     into request construction (Build*/Compute* helpers or rpc call
//     methods) inside the loop: each iteration is a new protocol attempt
//     and needs a new nonce.
var NonceFresh = &Analyzer{
	Name: "noncefresh",
	Doc: "fresh-nonce RPC methods (N1–N3 taxonomy) must go through " +
		"CallFresh; nonce values must not be reused across loop iterations",
	Run: runNonceFresh,
}

// rpcCallMethods maps a client call method to the index of its RPC-method-
// name argument.
var rpcCallMethods = map[string]int{
	"Call":     0, // Call(method, req, resp)
	"CallCtx":  1, // CallCtx(ctx, method, req, resp)
	"CallIdem": 1, // CallIdem(ctx, method, key, req, resp)
}

func runNonceFresh(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkFreshMethod(pass, n)
			case *ast.ForStmt:
				if n.Body != nil {
					checkNonceReuse(pass, n.Body)
				}
			case *ast.RangeStmt:
				if n.Body != nil {
					checkNonceReuse(pass, n.Body)
				}
			}
			return true
		})
	}
}

func checkFreshMethod(pass *Pass, call *ast.CallExpr) {
	method, ok := rpcCall(pass.Info, call)
	if !ok {
		return
	}
	idx, ok := rpcCallMethods[method]
	if !ok || len(call.Args) <= idx {
		return
	}
	name, ok := constString(pass.Info, call.Args[idx])
	if !ok {
		return
	}
	if nonce, fresh := freshNonceMethods[name]; fresh {
		pass.Reportf(call.Pos(),
			"method %q carries fresh nonce %s and must go through CallFresh "+
				"(plain %s re-sends the same nonce on retry, which the peer's replay cache rejects)",
			name, nonce, method)
	}
}

// checkNonceReuse flags uses, inside a loop body, of nonce-typed variables
// declared outside the loop when they feed request construction or an RPC
// call. Nonces regenerated inside the loop (or inside a CallFresh makeReq
// closure) are fine.
func checkNonceReuse(pass *Pass, body *ast.BlockStmt) {
	reported := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !buildsRequest(pass, call) {
			return true
		}
		for _, arg := range call.Args {
			id, ok := ast.Unparen(unslice(arg)).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.Info.Uses[id]
			v, isVar := obj.(*types.Var)
			if !isVar || v.IsField() || !typeIs(v.Type(), "cloudmonatt/internal/cryptoutil", "Nonce") {
				continue
			}
			// Declared outside this loop body, and not reassigned inside it
			// before use?
			if v.Pos() >= body.Pos() && v.Pos() < body.End() {
				continue
			}
			if assignedWithin(pass, body, v) {
				continue
			}
			if !reported[v] {
				reported[v] = true
				pass.Reportf(id.Pos(),
					"nonce %s is declared outside the loop and reused across iterations; "+
						"each attempt is a new protocol exchange and needs a fresh nonce", v.Name())
			}
		}
		return true
	})
}

// buildsRequest reports whether call constructs or transmits a protocol
// message: a Build*/Compute* function or a client call method.
func buildsRequest(pass *Pass, call *ast.CallExpr) bool {
	if method, ok := rpcCall(pass.Info, call); ok {
		return strings.HasPrefix(method, "Call") || method == "Connect"
	}
	f, _ := callee(pass.Info, call)
	return f != nil && (strings.HasPrefix(f.Name(), "Build") || strings.HasPrefix(f.Name(), "Compute"))
}

// assignedWithin reports whether v is (re)assigned anywhere inside body.
func assignedWithin(pass *Pass, body *ast.BlockStmt, v *types.Var) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range assign.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if pass.Info.Uses[id] == v || pass.Info.Defs[id] == v {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

func unslice(e ast.Expr) ast.Expr {
	if sl, ok := ast.Unparen(e).(*ast.SliceExpr); ok {
		return sl.X
	}
	return e
}
