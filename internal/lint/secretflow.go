package lint

import (
	"go/ast"
	"go/types"
)

// SecretFlow tracks key material from its sources to operator-visible
// sinks. The PR 8 resumption path mints long-lived secrets — traffic keys,
// resumption master secrets, ticket-sealing keys — and the protocol's
// confidentiality argument assumes they exist only inside the secure
// channel's key schedule. A secret that reaches an error string, a log
// line, a span annotation, a metric name, or a plaintext file outlives the
// session in places replicated to operators, trace stores, and dashboards.
//
// Sources: the secretSources calls, Ticket.RMS field reads, and any call
// carrying a "returnsSecret" fact exported by an earlier-analyzed package.
// Deliberately not a source: merely holding an Identity value — the taint
// begins where raw key bytes are extracted. cryptoutil.Redact (fingerprint
// for logs) and cryptoutil.Hash (domain-separated, non-invertible) launder,
// as every call outside secretPropagators does; cryptoutil.WriteSecretFile
// is the one sanctioned persistence path (0600, documented provisioning).
var SecretFlow = &Analyzer{
	Name: "secretflow",
	Doc: "key material (session keys, RMS, ticket keys, private keys) must not " +
		"flow into error strings, logs, span annotations, metric names, or plaintext files; " +
		"redact with cryptoutil.Redact or persist via cryptoutil.WriteSecretFile",
	Run:   runSecretFlow,
	Facts: secretFlowFacts,
}

// secretFlowFacts exports "returnsSecret" (the secret's description) for
// every function whose return values carry taint, making the source set
// transitive across helpers and packages.
func secretFlowFacts(pass *Pass) {
	exportToFixedPoint(pass, "returnsSecret", func(fd *ast.FuncDecl) (string, bool) {
		fl := analyzeFlow(pass, fd.Body)
		secret := ""
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if secret != "" {
				return false
			}
			// Skip nested function literals: their returns are not this
			// function's returns.
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			if ret, ok := n.(*ast.ReturnStmt); ok {
				for _, res := range ret.Results {
					if why, tainted := fl.taintOf(res); tainted {
						secret = why
						return false
					}
				}
			}
			return true
		})
		return secret, secret != ""
	})
}

// runSecretFlow reports tainted values reaching sinks.
func runSecretFlow(pass *Pass) {
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		fl := analyzeFlow(pass, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			_, key := callee(pass.Info, call)
			sink, ok := secretSinks[key]
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if why, tainted := fl.taintOf(arg); tainted {
					pass.Reportf(call.Pos(),
						"secret material (%s) flows into a %s sink; redact with cryptoutil.Redact "+
							"or route through a sanctioned secret-handling helper", why, sink)
					break
				}
			}
			return true
		})
	})
}

// --- the taint engine ---
//
// A flow tracks which local objects of one function body carry a value
// derived from a secret source, through assignments, field reads,
// composite literals, conversions, concatenation, and calls to
// propagators, iterating the body to a fixed point. Closures share the
// enclosing function's taint set, so a secret captured by a func literal
// stays tainted inside it.
//
// The engine is deliberately conservative in one direction only: it never
// invents taint for calls it does not recognize (an unknown call's result
// is clean), so unsanitized flows must pass through a source, propagator,
// or fact-carrying function to be reported. That keeps signatures like
// Sign (secret in, public signature out) from poisoning the whole program.

// A flow is one function body's taint analysis: tainted objects mapped to
// the description of their source.
type flow struct {
	pass    *Pass
	tainted map[types.Object]string
}

// analyzeFlow runs the engine over a function body.
func analyzeFlow(pass *Pass, body *ast.BlockStmt) *flow {
	fl := &flow{pass: pass, tainted: make(map[types.Object]string)}
	// Fixed point: each pass may discover taint that earlier statements
	// feed into later reads (or loops feed backward).
	for {
		before := len(fl.tainted)
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				fl.assign(s.Lhs, s.Rhs)
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(s.Names))
				for i, id := range s.Names {
					lhs[i] = id
				}
				fl.assign(lhs, s.Values)
			case *ast.RangeStmt:
				if why, ok := fl.taintOf(s.X); ok {
					fl.markLHS(s.Key, why)
					fl.markLHS(s.Value, why)
				}
			}
			return true
		})
		if len(fl.tainted) == before {
			return fl
		}
	}
}

// source classifies an expression as an original taint source, returning
// a human-readable description of what it carries.
func (fl *flow) source(expr ast.Expr) (string, bool) {
	info := fl.pass.Info
	switch e := expr.(type) {
	case *ast.CallExpr:
		f, key := callee(info, e)
		if why, ok := secretSources[key]; ok {
			return why, true
		}
		if f != nil {
			return fl.pass.Fact(f, "returnsSecret")
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named := namedOf(sel.Recv()); named != nil && named.Obj().Pkg() != nil {
				if secretFields[named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+e.Sel.Name] {
					return "resumption master secret", true
				}
			}
		}
	}
	return "", false
}

// taintOf reports whether expr carries tainted data and from which source.
func (fl *flow) taintOf(expr ast.Expr) (string, bool) {
	if expr == nil {
		return "", false
	}
	if why, ok := fl.source(expr); ok {
		return why, true
	}
	// Error values never carry taint: an error returned alongside a secret
	// (key, err := derive(...)) describes the failure, it does not embed
	// the input. The one construction that does embed data in an error —
	// fmt.Errorf("%x", key) — is a sink, caught at the call itself.
	if tv, ok := fl.pass.Info.Types[expr]; ok && isErrorType(tv.Type) {
		return "", false
	}
	switch e := expr.(type) {
	case *ast.Ident:
		if obj := fl.pass.Info.ObjectOf(e); obj != nil {
			if why, ok := fl.tainted[obj]; ok {
				return why, true
			}
		}
	case *ast.ParenExpr:
		return fl.taintOf(e.X)
	case *ast.StarExpr:
		return fl.taintOf(e.X)
	case *ast.UnaryExpr:
		return fl.taintOf(e.X)
	case *ast.IndexExpr:
		return fl.taintOf(e.X)
	case *ast.SliceExpr:
		return fl.taintOf(e.X)
	case *ast.SelectorExpr:
		// Reading a field of a tainted struct yields tainted data.
		return fl.taintOf(e.X)
	case *ast.BinaryExpr:
		if why, ok := fl.taintOf(e.X); ok {
			return why, true
		}
		return fl.taintOf(e.Y)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if why, ok := fl.taintOf(v); ok {
				return why, true
			}
		}
	case *ast.CallExpr:
		return fl.taintOfCall(e)
	}
	return "", false
}

// taintOfCall classifies a call's result.
func (fl *flow) taintOfCall(call *ast.CallExpr) (string, bool) {
	info := fl.pass.Info
	// Type conversions pass the value through unchanged.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return fl.taintOf(call.Args[0])
	}
	// Builtins append, min and max forward their operands.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "append", "min", "max":
				return fl.anyArgTaint(call)
			}
			return "", false
		}
	}
	_, key := callee(info, call)
	if !secretPropagators[key] {
		return "", false
	}
	if why, ok := fl.anyArgTaint(call); ok {
		return why, true
	}
	// Method propagators forward receiver taint too.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return fl.taintOf(sel.X)
	}
	return "", false
}

func (fl *flow) anyArgTaint(call *ast.CallExpr) (string, bool) {
	for _, arg := range call.Args {
		if why, ok := fl.taintOf(arg); ok {
			return why, true
		}
	}
	return "", false
}

// assign applies rhs taint to lhs targets, handling both the paired form
// (a, b = x, y) and the tuple form (a, b = f()).
func (fl *flow) assign(lhs, rhs []ast.Expr) {
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			if why, ok := fl.taintOf(rhs[i]); ok {
				fl.markLHS(lhs[i], why)
			}
		}
	case len(rhs) == 1:
		// Tuple assignment: if the single rhs is tainted, every target is.
		if why, ok := fl.taintOf(rhs[0]); ok {
			for _, l := range lhs {
				fl.markLHS(l, why)
			}
		}
	}
}

// markLHS taints the object behind an assignment target. Writing a tainted
// value into a field taints the whole containing object (conservative:
// reading any field of it later reports taint).
func (fl *flow) markLHS(target ast.Expr, why string) {
	switch t := ast.Unparen(target).(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return
		}
		if obj := fl.pass.Info.ObjectOf(t); obj != nil && !isErrorType(obj.Type()) {
			fl.tainted[obj] = why // errors do not carry secrets; see taintOf
		}
	case *ast.SelectorExpr:
		fl.markLHS(t.X, why)
	case *ast.StarExpr:
		fl.markLHS(t.X, why)
	case *ast.IndexExpr:
		fl.markLHS(t.X, why)
	}
}

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error"
}
