package lint

import (
	"go/ast"
)

// VClockOnly enforces simulation determinism: packages wired to the
// virtual clock must not read wall-clock time or start wall-clock timers.
// The testbed replays seeded scenarios (chaos runs, periodic schedules,
// latency models) bit-for-bit only if every timestamp flows from
// vclock.Clock; one stray time.Now() in a protocol path silently decouples
// evidence timestamps, retry budgets, or ledger entries from the simulated
// timeline. Genuine wall-time needs (net.Conn deadlines, file mtimes,
// real backoff sleeps) are allowed case by case with
// //lint:ignore vclockonly <justification>.
var VClockOnly = &Analyzer{
	Name: "vclockonly",
	Doc: "wall-clock reads (time.Now/Since/Until) and wall-clock timers " +
		"(time.After/Sleep/Tick/NewTimer/NewTicker/AfterFunc) are forbidden in " +
		"packages wired to internal/vclock; use the injected clock or annotate " +
		"//lint:ignore vclockonly <justification>",
	Run: runVClockOnly,
}

// wallClockFuncs are the time package functions that observe or schedule
// against the wall clock. Pure constructors (time.Duration arithmetic,
// time.Unix, time.Date) are fine: they don't read the clock.
var wallClockFuncs = map[string]bool{
	"time.Now":       true,
	"time.Since":     true,
	"time.Until":     true,
	"time.After":     true,
	"time.Tick":      true,
	"time.Sleep":     true,
	"time.NewTimer":  true,
	"time.NewTicker": true,
	"time.AfterFunc": true,
}

func runVClockOnly(pass *Pass) {
	if !vclockScoped(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, key := callee(pass.Info, call); wallClockFuncs[key] {
				pass.Reportf(call.Pos(),
					"wall-clock %s in a vclock-wired package breaks seeded replay; "+
						"use the injected virtual clock or annotate //lint:ignore vclockonly <why>", key)
			}
			return true
		})
	}
}
