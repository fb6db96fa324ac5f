package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// IntentBracket enforces the two-phase intent contract of DESIGN.md §13:
// every controller operation with a side effect on the fleet — launching,
// terminating, migrating, suspending or resuming a VM — must be bracketed
// by KindIntent ledger entries so a crashed controller replays to a
// consistent view. Begin-phase ops (launch, terminate, migrate-out) need
// the begin entry appended before the effect: the dangerous crash window
// is between deciding and doing. State-transition ops (suspend, resume)
// are end-only: the completed transition is appended after the effect so
// replay folds the VM's final state.
//
// The rule is intraprocedural plus facts. A function that performs an
// effect RPC and touches the intent ledger is self-bracketed. An
// unexported function that performs a raw effect without intents exports
// an "effect" fact — the bracketing burden moves to its callers. An
// exported function that performs an effect (directly or via a
// fact-carrying callee) with no intent activity is a finding: a crash
// inside it strands the fleet in a state replay cannot reconstruct.
// Functions with an intent-custody parameter (a string parameter whose
// name contains "intent") inherit an open intent from their caller and
// pass that demand on as their "effect" fact instead.
var IntentBracket = &Analyzer{
	Name: "intentbracket",
	Doc: "side-effecting VM operations (launch/terminate/migrate/suspend/resume) must " +
		"append two-phase KindIntent ledger entries: begin before begin-phase effects, " +
		"a state/end entry after transitions; unbracketed exported performers are findings",
	Run:   runIntentBracket,
	Facts: intentBracketFacts,
}

// funcEffects summarizes one function body for the bracket rule.
type funcEffects struct {
	effects      []effectSite  // effect calls, direct or via fact
	intents      []intentTouch // intent-ledger touches
	custodyParam string        // intent-custody parameter name, if any
}

// intentTouch is one intent-ledger call; begin distinguishes phase-1
// appends (intentBegin, record with Phase "begin") from phase-2 closes
// (intentEnd, stateIntent, record with Phase "end").
type intentTouch struct {
	pos   token.Pos
	begin bool
}

type effectSite struct {
	pos  token.Pos
	op   string
	kind effectKind
	via  string // callee name when the effect arrives via fact
}

// collectEffects walks one function body.
func collectEffects(pass *Pass, fd *ast.FuncDecl) funcEffects {
	var fx funcEffects
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if strings.Contains(strings.ToLower(name.Name), "intent") && isStringType(pass.Info, name) {
					fx.custodyParam = name.Name
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Intent-ledger touches: the intent helper family, or any call
		// passing ledger.KindIntent (MigrateVM appends records directly).
		f, _ := callee(pass.Info, call)
		if f != nil && intentCallNames[f.Name()] {
			fx.intents = append(fx.intents, intentTouch{pos: call.Pos(), begin: f.Name() == "intentBegin"})
			return true
		}
		for _, arg := range call.Args {
			if isLedgerKindIntent(pass.Info, arg) {
				fx.intents = append(fx.intents, intentTouch{pos: call.Pos(), begin: recordsBeginPhase(call)})
				return true
			}
		}
		// Direct effect RPCs: a Call* on an rpc client whose method
		// argument folds to an effect method.
		if _, ok := rpcCall(pass.Info, call); ok {
			for _, arg := range call.Args {
				if m, ok := constString(pass.Info, arg); ok {
					if kind, isEffect := effectMethods[m]; isEffect {
						fx.effects = append(fx.effects, effectSite{pos: call.Pos(), op: m, kind: kind})
					}
					break // first constant string is the method
				}
			}
			return true
		}
		// Effects via facts: calling a function another pass marked as a
		// raw performer, or a custody-taking helper.
		if f != nil {
			if op, ok := pass.Fact(f, "effect"); ok {
				fx.effects = append(fx.effects, effectSite{pos: call.Pos(), op: op, kind: effectMethods[op], via: f.Name()})
			}
		}
		return true
	})
	return fx
}

// intentBracketFacts exports an "effect" fact (the op its callers must
// bracket) for unbracketed performers, so the diagnostic pass sees through
// helper layers. A helper with an intent-custody parameter demands an open
// begin intent of its callers whatever it does, recorded as "remediate"
// (a begin-phase op: it has no effectMethods row); otherwise only an
// unexported performer passes its first effect on.
func intentBracketFacts(pass *Pass) {
	exportToFixedPoint(pass, "effect", func(fd *ast.FuncDecl) (string, bool) {
		fx := collectEffects(pass, fd)
		switch {
		case len(fx.effects) == 0 || len(fx.intents) > 0:
			return "", false // no effects, or self-bracketed
		case fx.custodyParam != "":
			return "remediate", true
		default:
			return fx.effects[0].op, !fd.Name.IsExported()
		}
	})
}

// runIntentBracket reports the violations.
func runIntentBracket(pass *Pass) {
	eachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		fx := collectEffects(pass, fd)
		if len(fx.effects) == 0 {
			return
		}
		if len(fx.intents) == 0 {
			// Unexported performers and custody takers export facts; the
			// obligation lands on their callers. Exported ones are the
			// API surface — a crash here is unrecoverable by replay.
			if fd.Name.IsExported() && fx.custodyParam == "" {
				e := fx.effects[0]
				how := "performs"
				if e.via != "" {
					how = "performs (via " + e.via + ")"
				}
				pass.Reportf(fd.Name.Pos(),
					"%s %s a %q side effect but appends no KindIntent ledger entry; "+
						"a controller crash here is invisible to replay (DESIGN.md §13 two-phase intent contract)",
					fd.Name.Name, how, e.op)
			}
			return
		}
		// Self-bracketed: check ordering for begin-phase effects. The rule
		// binds only functions that append their own begin entry — phase-2
		// executors (finalizeTeardown, MigrateVM's convergent steps, crash
		// recovery) close intents that were made durable by an earlier
		// pass, so end-only touches after the effect are the contract
		// working, not a violation.
		firstBegin := token.NoPos // intents are in source order
		for _, t := range fx.intents {
			if t.begin {
				firstBegin = t.pos
				break
			}
		}
		if firstBegin == token.NoPos {
			return
		}
		for _, e := range fx.effects {
			if e.kind == effectBegin && e.pos < firstBegin {
				pass.Reportf(e.pos,
					"begin-phase effect %q happens before its begin intent is appended; "+
						"append the intent first (the crash window is between deciding and doing)", e.op)
			}
		}
	})
}

// recordsBeginPhase reports whether a direct KindIntent record call
// carries a Phase: "begin" field in one of its composite-literal
// arguments (the c.record(ledger.KindIntent, ..., intentRecord{Phase:
// "begin", ...}) form). Anything else is a phase-2 close.
func recordsBeginPhase(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.CompositeLit)
		if !ok {
			continue
		}
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok || key.Name != "Phase" {
				continue
			}
			if val, ok := ast.Unparen(kv.Value).(*ast.BasicLit); ok && val.Value == `"begin"` {
				return true
			}
		}
	}
	return false
}

// isLedgerKindIntent reports whether expr denotes ledger.KindIntent.
func isLedgerKindIntent(info *types.Info, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.ObjectOf(sel.Sel)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "cloudmonatt/internal/ledger" && obj.Name() == "KindIntent"
}

func isStringType(info *types.Info, id *ast.Ident) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	basic, ok := obj.Type().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.String
}
