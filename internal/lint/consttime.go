package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ConstTime enforces two timing-side-channel rules from the attestation
// literature (a verifier that leaks how many quote bytes matched lets a
// co-resident attacker forge evidence byte by byte):
//
//  1. Values that hold quotes (Q1–Q3), MACs, signatures, or key material
//     must be compared with crypto/subtle.ConstantTimeCompare, never with
//     ==, !=, bytes.Equal, or reflect.DeepEqual, all of which short-circuit
//     on the first differing byte.
//  2. math/rand (and math/rand/v2) must not be imported by the packages
//     that generate key material or nonces; predictable randomness
//     collapses the freshness argument entirely.
//
// Protocol nonces are exempt from rule 1: they travel in cleartext and are
// checked against a replay cache, so their comparison timing reveals
// nothing secret.
var ConstTime = &Analyzer{
	Name: "consttime",
	Doc: "quote/MAC/key/signature comparisons must use " +
		"crypto/subtle.ConstantTimeCompare; math/rand is forbidden in " +
		"key-handling packages",
	Run: runConstTime,
}

// sensitiveName matches identifiers and field names that hold secret-
// derived comparable material by this repo's naming conventions: the
// paper's quotes Q1..Q3, signatures, MACs, and key fields (AVK is the
// attestation verification key of §4.3).
var sensitiveName = regexp.MustCompile(`(?:^(?i:q[0-9]+|quote|mac|sig|signature|avk|tag)$)|(?:(Key|Sig|Mac|MAC|Quote|AVK)$)`)

func runConstTime(pass *Pass) {
	crypto := cryptoScoped(pass.Pkg.Path())
	for _, f := range pass.Files {
		if crypto {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				if p == "math/rand" || p == "math/rand/v2" {
					pass.Reportf(imp.Pos(),
						"%s imported in a key-handling package; predictable randomness breaks "+
							"nonce freshness and key generation — use crypto/rand (or an injected io.Reader)", p)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isNilIdent(n.X) || isNilIdent(n.Y) {
					return true
				}
				if name, ok := sensitiveOperand(pass.Info, n.X); ok {
					pass.Reportf(n.Pos(), "%s compared with %s leaks a timing side channel; use crypto/subtle.ConstantTimeCompare", name, n.Op)
				} else if name, ok := sensitiveOperand(pass.Info, n.Y); ok {
					pass.Reportf(n.Pos(), "%s compared with %s leaks a timing side channel; use crypto/subtle.ConstantTimeCompare", name, n.Op)
				}
			case *ast.CallExpr:
				_, key := callee(pass.Info, n)
				if (key == "bytes.Equal" || key == "reflect.DeepEqual") && len(n.Args) == 2 {
					for _, arg := range n.Args {
						if name, ok := sensitiveOperand(pass.Info, arg); ok {
							pass.Reportf(n.Pos(), "%s compared with %s leaks a timing side channel; use crypto/subtle.ConstantTimeCompare", name, key)
							break
						}
					}
				}
			}
			return true
		})
	}
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// sensitiveOperand reports whether e names secret-derived byte material:
// either its type is an ed25519 key, or its name matches the sensitive
// conventions and its type is a byte slice or byte array. Protocol nonces
// (cryptoutil.Nonce) are explicitly public.
func sensitiveOperand(info *types.Info, e ast.Expr) (string, bool) {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok { // x[:] — look at x
		e = ast.Unparen(sl.X)
	}
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return "", false
	}
	if typeIs(tv.Type, "crypto/ed25519", "PublicKey") || typeIs(tv.Type, "crypto/ed25519", "PrivateKey") {
		return exprLabel(e), true
	}
	if typeIs(tv.Type, "cloudmonatt/internal/cryptoutil", "Nonce") {
		return "", false
	}
	name := exprName(e)
	if name == "" || !sensitiveName.MatchString(name) {
		return "", false
	}
	if !bytesLike(tv.Type) {
		return "", false
	}
	return exprLabel(e), true
}

func exprName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.CallExpr:
		// A conversion like ed25519.PublicKey(x) is handled by its type;
		// plain call results have no stable name.
		return ""
	}
	return ""
}

func exprLabel(e ast.Expr) string {
	if n := exprName(e); n != "" {
		return n
	}
	return "secret material"
}

// bytesLike reports whether t's underlying type is []byte or [N]byte.
func bytesLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return isByte(u.Elem())
	case *types.Array:
		return isByte(u.Elem())
	}
	return false
}

func isByte(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8)
}
