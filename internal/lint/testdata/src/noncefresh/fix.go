// Package noncefreshfix exercises the noncefresh analyzer: fresh-nonce
// RPC methods must go through CallFresh, and a nonce declared outside a
// loop must not feed request construction inside it.
package noncefreshfix

import (
	"context"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/rpc"
)

// BuildProbe stands in for the wire.Build* request constructors.
func BuildProbe(n cryptoutil.Nonce) any { return n }

func staleMethods(ctx context.Context, rc *rpc.ReconnectClient, req, resp any) {
	rc.CallCtx(ctx, "measure", req, resp)                 // want `must go through CallFresh`
	rc.Call("appraise", req, resp)                        // want `must go through CallFresh`
	rc.CallIdem(ctx, "runtime_attest_current", req, resp) // want `must go through CallFresh`
	rc.CallCtx(ctx, "list_vms", req, resp)                // clean: carries no protocol nonce
}

func freshMethod(ctx context.Context, rc *rpc.ReconnectClient, resp any) error {
	return rc.CallFresh(ctx, "measure", func() (any, error) {
		return BuildProbe(cryptoutil.MustNonce()), nil
	}, resp)
}

func reusedAcrossLoop(items []int) {
	n := cryptoutil.MustNonce()
	for range items {
		_ = BuildProbe(n) // want `reused across iterations`
	}
}

func freshPerIteration(items []int) {
	for range items {
		n := cryptoutil.MustNonce()
		_ = BuildProbe(n)
	}
}

func regeneratedInLoop(items []int) {
	n := cryptoutil.MustNonce()
	for range items {
		n = cryptoutil.MustNonce()
		_ = BuildProbe(n)
	}
}
