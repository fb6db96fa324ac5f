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
	top, ok := internalTop(path)
	return ok && !vclockExempt[top]
}

// internalTop returns a module package's first path segment under
// internal/, by which the scoped rules are keyed.
func internalTop(path string) (string, bool) {
	rel, ok := strings.CutPrefix(path, modPrefix)
	top, _, _ := strings.Cut(rel, "/")
	return top, ok
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
	top, ok := internalTop(path)
	return ok && cryptoPkgs[top]
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

// secretSources are the calls whose results are raw keying material, by
// callee key, with the description a finding gives them: the identity
// seed, and the secchan key schedule's traffic keys, resumption master
// secrets and their ratchet steps.
var secretSources = map[string]string{
	"cloudmonatt/internal/cryptoutil.Identity.Seed": "identity seed",
	"cloudmonatt/internal/secchan.deriveKeys":       "derived key material",
	"cloudmonatt/internal/secchan.deriveRMS":        "derived key material",
	"cloudmonatt/internal/secchan.resumeKeys":       "derived key material",
	"cloudmonatt/internal/secchan.nextRMS":          "derived key material",
}

// secretFields are struct fields holding secret material; reading one is a
// source. Keyed "pkg/path.Type.Field".
var secretFields = map[string]bool{
	"cloudmonatt/internal/secchan.Ticket.RMS": true,
}

// secretSinks (callee key → sink description) format or persist their
// arguments somewhere an operator, log pipeline, trace store or dashboard
// can read them back. fmt.Sprintf is deliberately a propagator, not a
// sink: its result only matters if it subsequently reaches one of these.
// cryptoutil.WriteSecretFile, the sanctioned persistence path (0600,
// documented provisioning), is not a sink.
var secretSinks = map[string]string{
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

	"cloudmonatt/internal/obs.ActiveSpan.Annotate":     "span annotation",
	"cloudmonatt/internal/metrics.Registry.Counter":    "metric name",
	"cloudmonatt/internal/metrics.Registry.Summary":    "metric name",
	"cloudmonatt/internal/metrics.Registry.IntSummary": "metric name",
}

// secretPropagators forward taint from arguments (and a method's
// receiver) to results: encoders and formatters whose output still
// reveals the input.
var secretPropagators = map[string]bool{
	"fmt.Sprintf":                             true,
	"fmt.Sprint":                              true,
	"fmt.Sprintln":                            true,
	"fmt.Appendf":                             true,
	"encoding/json.Marshal":                   true,
	"encoding/json.MarshalIndent":             true,
	"encoding/hex.EncodeToString":             true,
	"encoding/hex.AppendEncode":               true,
	"encoding/base64.Encoding.EncodeToString": true,
	"encoding/base64.Encoding.AppendEncode":   true,
}

// --- lockorder ---

// blockingCalls (callee key → why) can park the calling goroutine
// indefinitely: RPC round-trips, WaitGroup waits and sleeps. Channel
// operations and selects are recognized syntactically; everything else
// arrives transitively via "blocks" facts.
var blockingCalls = map[string]string{
	"cloudmonatt/internal/rpc.Client.Call":               "rpc call",
	"cloudmonatt/internal/rpc.ReconnectClient.Call":      "rpc call",
	"cloudmonatt/internal/rpc.ReconnectClient.CallCtx":   "rpc call",
	"cloudmonatt/internal/rpc.ReconnectClient.CallIdem":  "rpc call",
	"cloudmonatt/internal/rpc.ReconnectClient.CallFresh": "rpc call",
	"sync.WaitGroup.Wait":                                "waitgroup wait",
	"time.Sleep":                                         "sleep",
	// Advance runs every cloud server's kernel, each under that server's
	// lock: a caller holding one of them never returns.
	"cloudmonatt/internal/vclock.Clock.Advance": "clock advance",
}

// opSerializers are mutexes whose documented purpose is to serialize whole
// logical operations end to end — RPCs included. They are exempt from the
// held-across-blocking rule (that is what they are for) but still
// participate in acquisition-order checking. Keyed "Type.field".
var opSerializers = map[string]bool{
	"Testbed.opMu":  true, // cloudsim: serializes kernel-driving operations
	"Server.sessMu": true, // server: session rotation, the pCA round-trip included, once per 8 measurements
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
	{"keyCache.mu", "keySlot.mu"},           // cryptoutil: a miss locks the slot it evicts under the index lock
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

// callee resolves a call to the called function and its table key:
// "pkg/path.Func" for a package-level function, "pkg/path.Type.Method" for
// a method (declared receiver, pointers dereferenced). Calls of anything
// but a declared function or method (conversions, builtins, func values)
// resolve to (nil, "").
func callee(info *types.Info, call *ast.CallExpr) (*types.Func, string) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, ""
	}
	f, ok := info.Uses[id].(*types.Func)
	if !ok || f.Pkg() == nil {
		return nil, ""
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		named := namedOf(recv.Type())
		if named == nil {
			return f, ""
		}
		return f, named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
	}
	return f, f.Pkg().Path() + "." + f.Name()
}

// rpcCall returns the method name of a call on one of rpcClientTypes.
func rpcCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	f, key := callee(info, call)
	if f == nil || !rpcClientTypes[strings.TrimSuffix(key, "."+f.Name())] {
		return "", false
	}
	return f.Name(), true
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
