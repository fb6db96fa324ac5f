package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// This file is the suite's domain knowledge: which packages are wired to
// the virtual clock, which RPC methods carry protocol nonces, and which
// packages handle key material. Analyzers consult these tables so the
// rules live in one reviewable place.

// modPrefix is the module path every table below is keyed under.
const modPrefix = "cloudmonatt/internal/"

// vclockExempt lists internal packages where wall-clock time is the point:
// the clock implementations themselves and the analysis tooling. Every
// other internal/ package participates in the simulated protocols and must
// route time through the injected virtual clock (vclock.Clock) so seeded
// runs replay identically.
var vclockExempt = map[string]bool{
	"vclock": true, // defines the virtual clock
	"sim":    true, // the discrete-event kernel under it
	"lint":   true, // this tooling
}

// vclockScoped reports whether the vclockonly invariant applies to the
// package with the given import path. Fixture packages loaded under a
// synthetic internal/ path participate, which is how the analyzer's own
// tests exercise both sides of the rule.
func vclockScoped(path string) bool {
	rel, ok := strings.CutPrefix(path, modPrefix)
	if !ok {
		return false
	}
	top, _, _ := strings.Cut(rel, "/")
	return !vclockExempt[top]
}

// freshNonceMethods maps RPC method names (the wire strings, resolved from
// constants or literals via constant folding) to the nonce they carry.
// A request on one of these methods embeds a protocol nonce that the
// peer's replay cache will reject if ever reused, so call sites must go
// through ReconnectClient.CallFresh, which rebuilds the request — and the
// nonce — on every retry attempt (paper §4.2: N1 customer→controller,
// N2 controller→attestation server, N3 attestation server→cloud server).
var freshNonceMethods = map[string]string{
	"startup_attest_current": "N1",
	"runtime_attest_current": "N1",
	"appraise":               "N2",
	"measure":                "N3",
}

// cryptoPkgs are the packages that generate or handle key material,
// nonces, or attestation secrets. math/rand is forbidden in them outright:
// a predictable nonce or key collapses the freshness and binding arguments
// of the whole protocol (cf. the SEV attestation bypasses in Buhren et
// al.). Seeded determinism for simulations is injected via io.Reader
// entropy sources instead.
//
// Scoping is by the first path segment under internal/, so an entry covers
// its whole subtree: "trust" includes trust/driver, which holds all three
// trust backends and their appraisers, and the trust/driver/sevsnp report
// format — the evidence and measurement comparisons that are the
// verifier-side targets the consttime rule exists for.
var cryptoPkgs = map[string]bool{
	"cryptoutil": true,
	"tpm":        true,
	"trust":      true,
	"pca":        true,
	"secchan":    true,
	"vtpm":       true,
}

func cryptoScoped(path string) bool {
	rel, ok := strings.CutPrefix(path, modPrefix)
	if !ok {
		return false
	}
	top, _, _ := strings.Cut(rel, "/")
	return cryptoPkgs[top]
}

// rpcClientTypes are the client types whose call methods the noncefresh,
// intentbracket and shardroute analyzers police.
var rpcClientTypes = map[string]bool{
	"cloudmonatt/internal/rpc.Client":          true,
	"cloudmonatt/internal/rpc.ReconnectClient": true,
}

// --- shardroute ---

// vmAddressedMethods lists the attestation-server RPC methods whose handler
// is gated on ring ownership of the VM (checkOwner in attestsrv/serve.go).
// A request for one of these landing on the wrong shard draws a
// WrongShardError, so call sites must carry routing provenance: the client
// must come off an attestRoute resolved by the routing layer, whose
// callRouted wrapper follows typed redirects. The facts pass also exports
// this property for any string constant whose declaration comment carries a
// "vm-addressed" marker, so the set tracks the code rather than this table
// alone.
var vmAddressedMethods = map[string]bool{
	"appraise":       true,
	"register-vm":    true,
	"forget-vm":      true,
	"periodic-start": true,
	"periodic-stop":  true,
	"periodic-fetch": true,
	"rebind-vm":      true,
}

// routeTypeName is the routing-provenance type: a VM-addressed call is
// sanctioned only through the client field of a value of this (package-
// local) type, because such values are only minted by routeForVM and
// routeForNode and consumed under callRouted's redirect loop.
const routeTypeName = "attestRoute"

// --- intentbracket ---

// effectKind classifies what bracketing an effect method demands.
type effectKind int

const (
	// effectBegin: a begin-phase intent must exist before the effect
	// (launch/place/terminate — the crash window is before the effect).
	effectBegin effectKind = iota
	// effectState: an end-only state intent must follow the effect
	// (suspend/resume — replay folds the completed transition).
	effectState
)

// effectMethods maps side-effecting RPC wire methods (resolved from the
// Call* method argument by constant folding) to the intent bracketing the
// two-phase ledger contract of DESIGN.md §13 demands of the caller.
var effectMethods = map[string]effectKind{
	"launch":      effectBegin,
	"terminate":   effectBegin,
	"migrate-out": effectBegin,
	"suspend":     effectState,
	"resume":      effectState,
}

// intentCallNames are the ledger-touching calls that count as appending an
// intent entry. c.record(ledger.KindIntent, ...) is recognized separately
// by argument type.
var intentCallNames = map[string]bool{
	"intentBegin": true,
	"intentEnd":   true,
	"stateIntent": true,
}

// --- secretflow ---

// secretSourceFuncs are the key-derivation functions whose results are raw
// keying material: traffic keys, resumption master secrets, and their
// ratchet steps (PR 8's session-resumption schedule).
var secretSourceFuncs = map[string]bool{
	"cloudmonatt/internal/secchan.deriveKeys": true,
	"cloudmonatt/internal/secchan.deriveRMS":  true,
	"cloudmonatt/internal/secchan.resumeKeys": true,
	"cloudmonatt/internal/secchan.nextRMS":    true,
}

// secretSourceMethods are methods whose results are secret material.
var secretSourceMethods = map[string]bool{
	"cloudmonatt/internal/cryptoutil.Identity.Seed": true,
}

// secretFields are struct fields holding secret material; reading one is a
// source. Keyed "pkg/path.Type.Field".
var secretFields = map[string]bool{
	"cloudmonatt/internal/secchan.Ticket.RMS": true,
}

// secretSanitizers launder secret material into something loggable: a
// domain-separated hash or a short redacted fingerprint. Keyed by
// (pkgPath, funcName) for functions.
var secretSanitizers = map[string]bool{
	"cloudmonatt/internal/cryptoutil.Redact": true,
	"cloudmonatt/internal/cryptoutil.Hash":   true,
}

// secretSinkFuncs (pkg.func → sink description) format or persist their
// arguments somewhere an operator, log pipeline, or trace store can read
// them back. fmt.Sprintf is deliberately a propagator, not a sink: its
// result only matters if it subsequently reaches one of these.
var secretSinkFuncs = map[string]string{
	"fmt.Errorf":   "error string",
	"fmt.Printf":   "stdout",
	"fmt.Print":    "stdout",
	"fmt.Println":  "stdout",
	"fmt.Fprintf":  "writer",
	"log.Printf":   "log",
	"log.Print":    "log",
	"log.Println":  "log",
	"log.Fatalf":   "log",
	"log.Fatal":    "log",
	"log.Fatalln":  "log",
	"log.Panicf":   "log",
	"log.Panic":    "log",
	"os.WriteFile": "plaintext file",
}

// secretWriteHelpers are the sanctioned persistence paths for secret
// material (tight permissions, documented provisioning semantics). A
// tainted value may flow into them.
var secretWriteHelpers = map[string]bool{
	"cloudmonatt/internal/cryptoutil.WriteSecretFile": true,
}

// secretPropagators forward taint from arguments to results: encoders and
// formatters whose output still reveals the input.
var secretPropagators = map[string]bool{
	"fmt.Sprintf":                 true,
	"fmt.Sprint":                  true,
	"fmt.Sprintln":                true,
	"fmt.Appendf":                 true,
	"encoding/json.Marshal":       true,
	"encoding/json.MarshalIndent": true,
}

// secretPropagatorMethods are method propagators ("pkg.Type.Method").
var secretPropagatorMethods = map[string]bool{
	"encoding/base64.Encoding.EncodeToString": true,
	"encoding/base64.Encoding.AppendEncode":   true,
	"encoding/hex.Encoder.Write":              true,
}

// secretPropagatorFuncs extends the list with plain functions.
var secretPropagatorFuncs = map[string]bool{
	"encoding/hex.EncodeToString": true,
	"encoding/hex.AppendEncode":   true,
}

// --- lockorder ---

// blockingMethods are method calls ("pkg.Type.Method") that can park the
// calling goroutine indefinitely: RPC round-trips and WaitGroup waits.
// Channel operations and selects are recognized
// syntactically; everything else arrives transitively via "blocks" facts.
var blockingMethods = map[string]string{
	"cloudmonatt/internal/rpc.Client.Call":               "rpc call",
	"cloudmonatt/internal/rpc.ReconnectClient.Call":      "rpc call",
	"cloudmonatt/internal/rpc.ReconnectClient.CallCtx":   "rpc call",
	"cloudmonatt/internal/rpc.ReconnectClient.CallIdem":  "rpc call",
	"cloudmonatt/internal/rpc.ReconnectClient.CallFresh": "rpc call",
	"sync.WaitGroup.Wait":                                "waitgroup wait",
	// Advance runs every cloud server's kernel, each under that server's
	// lock: a caller holding one of them never returns.
	"cloudmonatt/internal/vclock.Clock.Advance": "clock advance",
}

// blockingFuncs are plain functions that block.
var blockingFuncs = map[string]string{
	"time.Sleep": "sleep",
}

// opSerializers are mutexes whose documented purpose is to serialize whole
// logical operations end to end — RPCs included. They are exempt from the
// held-across-blocking rule (that is what they are for) but still
// participate in acquisition-order checking. Keyed "Type.field".
var opSerializers = map[string]bool{
	"Testbed.opMu":     true, // cloudsim: serializes kernel-driving operations
	"Config.Serialize": true, // controller: the nova-api single-writer contract
	"Server.sessMu":    true, // server: session rotation, the pCA round-trip included, once per 8 measurements
}

// lockOrder lists known lock pairs in acquisition order: the first member
// must never be acquired while the second is held. Keyed "Type.field".
var lockOrder = [][2]string{
	{"Testbed.opMu", "Testbed.mu"},          // cloudsim: op serializer before state
	{"Testbed.opMu", "certifierSwitch.mu"},  // cloudsim: op serializer before pCA switch
	{"certifierSwitch.mu", "Testbed.mu"},    // cloudsim: RestartPCA ordering
	{"Server.sessMu", "certifierSwitch.mu"}, // server: rotation certifies through the pCA switch …
	{"Server.sessMu", "PCA.mu"},             // … and then the pCA itself; neither calls back into a server
	{"periodicEngine.mu", "Server.mu"},      // attestsrv: engine before server state
	{"Clock.mu", "Server.mu"},               // vclock: Advance and Attach take each cloud server's lock under the clock's
}

// blockingMarker in an interface method's doc or line comment declares the
// method contractually blocking (e.g. a certification round-trip to the
// privacy CA), exported as a "blocks" fact for every implementation-
// agnostic call site.
const blockingMarker = "lockorder: blocking"

// vmAddressedMarker in a string constant's doc or line comment declares it
// a VM-addressed RPC method, exported as a "vmAddressed" fact.
const vmAddressedMarker = "vm-addressed"

// --- type-resolution helpers shared by the analyzers ---

// calleeOf resolves a call to (package path, function name) for package-
// level functions, or ("", "") otherwise.
func calleeOf(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fun.Sel]; ok {
			if f, ok := obj.(*types.Func); ok && f.Pkg() != nil {
				if f.Type().(*types.Signature).Recv() == nil {
					return f.Pkg().Path(), f.Name()
				}
			}
		}
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			if f, ok := obj.(*types.Func); ok && f.Pkg() != nil {
				if f.Type().(*types.Signature).Recv() == nil {
					return f.Pkg().Path(), f.Name()
				}
			}
		}
	}
	return "", ""
}

// methodOf resolves a method call to (qualified receiver type, method
// name): ("cloudmonatt/internal/rpc.ReconnectClient", "CallFresh").
// Pointer receivers are dereferenced.
func methodOf(info *types.Info, call *ast.CallExpr) (recvType, method string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", ""
	}
	named := namedOf(s.Recv())
	if named == nil || named.Obj().Pkg() == nil {
		return "", ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name(), sel.Sel.Name
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil
		}
	}
}

// constString resolves expr to a compile-time string value via constant
// folding (literals, named constants, and concatenations thereof).
func constString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// typeIs reports whether t (after unwrapping pointers/aliases) is the
// named type pkgPath.name.
func typeIs(t types.Type, pkgPath, name string) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}
