// Package ctxdeadlinefix exercises the ctxdeadline analyzer: raw rpc.Client
// call sites with provably deadline-free contexts are flagged; WithTimeout
// derivations, caller-supplied contexts and the self-bounding
// ReconnectClient are not.
package ctxdeadlinefix

import (
	"context"
	"time"

	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/rpc"
)

type ctxKey struct{}

func unbounded(c *rpc.Client, req, resp any) {
	c.Call("list_vms", req, resp)                          // want `carries no context`
	c.CallCtx(context.Background(), "list_vms", req, resp) // want `provably carries no deadline`
	ctx := context.Background()
	c.CallCtx(ctx, "list_vms", req, resp)             // want `provably carries no deadline`
	c.CallIdem(context.TODO(), "m", "key", req, resp) // want `provably carries no deadline`
}

func laundered(c *rpc.Client, sp *obs.ActiveSpan, req, resp any) {
	c.CallCtx(context.WithValue(context.Background(), ctxKey{}, 1), "m", req, resp) // want `provably carries no deadline`
	c.CallCtx(obs.ContextWith(context.Background(), sp), "m", req, resp)            // want `provably carries no deadline`
}

func bounded(ctx context.Context, c *rpc.Client, req, resp any) error {
	tctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.CallCtx(tctx, "m", req, resp); err != nil {
		return err
	}
	// A caller-supplied context is the caller's responsibility; the rule
	// re-applies at that caller's own call site.
	return c.CallIdem(ctx, "m", "key", req, resp)
}

// selfBounded: a ReconnectClient bounds every call itself (rpc.OpBudget).
func selfBounded(rc *rpc.ReconnectClient, sp *obs.ActiveSpan, req, resp any) error {
	if err := rc.Connect(context.Background()); err != nil {
		return err
	}
	return rc.CallCtx(obs.ContextWith(context.Background(), sp), "m", req, resp)
}
