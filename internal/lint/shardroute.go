package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShardRoute enforces routing discipline in controller code. The
// attestation plane is sharded behind consistent hashing, so the only
// sanctioned way to reach a VM-addressed attestsrv method is through an
// attestRoute minted by routeForVM/routeForNode and driven by callRouted,
// which follows typed wrong-shard redirects. A direct rpc client call to
// a VM-addressed method bypasses ownership checks and redirect handling:
// it works in single-shard tests and silently talks to the wrong shard in
// production.
//
// Which methods are VM-addressed is not hard-coded here: the facts pass
// over internal/attestsrv exports a "vmAddressed" fact for every method
// constant whose doc comment carries the "vm-addressed" marker (plus a
// seed list in the taxonomy for robustness), so the protocol package
// stays the single source of truth.
//
// The second rule: wrong-shard redirects are typed. Classifying them by
// substring-matching the error text (strings.Contains(err, "wrong-shard"))
// breaks the moment the message changes; shard.ParseWrongShard is the
// parser. internal/shard itself is exempt — something has to implement
// the parser.
var ShardRoute = &Analyzer{
	Name: "shardroute",
	Doc: "VM-addressed attestsrv calls must go through attestRoute/callRouted, not raw " +
		"rpc clients; wrong-shard errors must be classified with shard.ParseWrongShard, " +
		"not string matching",
	Run:   runShardRoute,
	Facts: shardRouteFacts,
}

// vmAddressedFact marks a method-name constant as VM-addressed: calls
// carrying it must flow through the routing layer.
type vmAddressedFact struct {
	Method string `json:"method"`
}

// shardRouteFacts exports vmAddressed facts for method constants. A
// constant qualifies if its value is in the taxonomy seed list or its
// doc comment carries the "vm-addressed" marker.
func shardRouteFacts(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				marked := hasMarker(gd.Doc, vmAddressedMarker) || hasMarker(vs.Doc, vmAddressedMarker) ||
					hasMarker(vs.Comment, vmAddressedMarker)
				for _, name := range vs.Names {
					obj := pass.Info.ObjectOf(name)
					cnst, isConst := obj.(*types.Const)
					if !isConst {
						continue
					}
					val := strings.Trim(cnst.Val().ExactString(), `"`)
					if marked || vmAddressedMethods[val] {
						pass.ExportFact(obj, "vmAddressed", vmAddressedFact{Method: val})
					}
				}
			}
		}
	}
}

func hasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	return strings.Contains(cg.Text(), marker)
}

// runShardRoute reports raw VM-addressed calls and stringly-typed
// wrong-shard classification.
func runShardRoute(pass *Pass) {
	// The shard package owns the wire format; it is allowed to look at it.
	inShardPkg := strings.HasSuffix(pass.Pkg.Path(), "/internal/shard")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			checkRawRoutedCall(pass, call)
			if !inShardPkg {
				checkStringlyWrongShard(pass, call)
			}
			return true
		})
	}
}

// checkRawRoutedCall flags Call* invocations on rpc clients whose method
// argument is VM-addressed, unless the client was pulled out of an
// attestRoute (rt.client.CallFresh(...) — provenance carried by the type).
func checkRawRoutedCall(pass *Pass, call *ast.CallExpr) {
	recv, _ := methodOf(pass.Info, call)
	if !rpcClientTypes[recv] {
		return
	}
	method := vmAddressedMethodArg(pass, call)
	if method == "" {
		return
	}
	if clientFromRoute(pass.Info, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"direct rpc call to VM-addressed method %q bypasses shard routing; mint an "+
			"attestRoute (routeForVM/routeForNode) and go through callRouted so "+
			"wrong-shard redirects are followed", method)
}

// vmAddressedMethodArg returns the VM-addressed method name carried by the
// call's first constant-string argument, or "". Both the taxonomy seed
// list and imported vmAddressed facts are consulted, so new methods only
// need the doc marker in the protocol package.
func vmAddressedMethodArg(pass *Pass, call *ast.CallExpr) string {
	for _, arg := range call.Args {
		m, ok := constString(pass.Info, arg)
		if !ok {
			continue
		}
		if vmAddressedMethods[m] {
			return m
		}
		if id := constIdent(arg); id != nil {
			if obj := pass.Info.ObjectOf(id); obj != nil {
				var fact vmAddressedFact
				if pass.ImportFact(obj, "vmAddressed", &fact) {
					return fact.Method
				}
			}
		}
		return "" // first constant string is the method; it isn't VM-addressed
	}
	return ""
}

// constIdent digs out the identifier naming a constant argument, through
// parens and conversions like string(attestsrv.MethodAppraise).
func constIdent(expr ast.Expr) *ast.Ident {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			return constIdent(e.Args[0])
		}
	}
	return nil
}

// clientFromRoute reports whether the call's receiver is the client field
// of a value whose type is named attestRoute (any package: the fixture
// defines its own). This is how provenance travels: routes are only
// minted by routeForVM/routeForNode.
func clientFromRoute(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if inner.Sel.Name != "client" {
		return false
	}
	tv, ok := info.Types[inner.X]
	if !ok {
		return false
	}
	named := namedOf(tv.Type)
	return named != nil && named.Obj().Name() == routeTypeName
}

// checkStringlyWrongShard flags substring classification of wrong-shard
// errors: strings.Contains/HasPrefix/HasSuffix/Index with an argument
// mentioning the wrong-shard marker.
func checkStringlyWrongShard(pass *Pass, call *ast.CallExpr) {
	pkg, name := calleeOf(pass.Info, call)
	if pkg != "strings" {
		return
	}
	switch name {
	case "Contains", "HasPrefix", "HasSuffix", "Index":
	default:
		return
	}
	for _, arg := range call.Args {
		//lint:ignore shardroute the analyzer itself must name the marker text it hunts for
		if s, ok := constString(pass.Info, arg); ok && strings.Contains(s, "wrong-shard") {
			pass.Reportf(call.Pos(),
				"wrong-shard errors are typed; classify with shard.ParseWrongShard instead of "+
					"strings.%s — substring matching breaks when the redirect message changes", name)
			return
		}
	}
}
