package controller

// Attestation-plane routing. Shards joined to a consistent-hash ring
// (Config.Ring) own VMs by hashing the VM id, so ownership survives
// migration across hosts and Join/Leave moves only ~1/N of the fleet; a
// one-member ring is the single-appraiser deployment.
//
// Every VM-addressed call resolves to an attestRoute — a client plus the
// report-signing key to verify against. A route can be stale the moment it
// is computed (a shard joined between lookup and call); the misrouted shard
// answers with a WrongShardError naming the owner under its newer view, and
// callRouted retries directly against that named owner. The redirect works
// even when the controller's own ring is behind, because the error carries
// the answer — no view refresh sits on the hot path.
//
// Two entry points sit on top: verifiedAppraisal is the one requester of
// protocol hop 2 (controller → attestation shard: fresh N2, appraise,
// verify), and callVM carries every other VM-addressed request.

import (
	"context"
	"errors"
	"fmt"

	"cloudmonatt/internal/attestsrv"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/shard"
	"cloudmonatt/internal/wire"
)

// attestRoute is one resolved path to an Attestation Server.
type attestRoute struct {
	client *rpc.ReconnectClient
	key    []byte // the shard's report-signing public key
	node   string // shard name on the ring
}

// shardEntry is one registered shard: its channel's name in the peer set
// and its report-signing public key.
type shardEntry struct {
	peer string
	key  []byte
}

// RegisterAttestShard records one shard of the attestation plane:
// its name on the ring, its endpoint, and its report-signing key
// (provisioned out of band, like any trust anchor). Re-registering a name
// replaces the endpoint and key, and the next route re-dials the new
// endpoint.
func (c *Controller) RegisterAttestShard(node, addr string, pub []byte) {
	e := shardEntry{peer: "attest-" + node, key: append([]byte(nil), pub...)}
	c.peers.Register(e.peer, addr)
	c.mu.Lock()
	c.shards[node] = e
	c.mu.Unlock()
}

// routeForNode resolves a route to a named shard.
func (c *Controller) routeForNode(node string) (attestRoute, error) {
	c.mu.Lock()
	e, ok := c.shards[node]
	c.mu.Unlock()
	if !ok {
		return attestRoute{}, fmt.Errorf("controller: unknown attestation shard %q", node)
	}
	cl, _ := c.peers.Client(e.peer) // registered with the entry
	return attestRoute{client: cl, key: e.key, node: node}, nil
}

// routeForVM resolves the route for a VM-addressed request by ring
// ownership of the VM id. It needs no VM record, so teardown and crash
// recovery route VMs the controller has already forgotten.
func (c *Controller) routeForVM(vid string) (attestRoute, error) {
	owner, _, ok := c.cfg.Ring.Lookup(vid)
	if !ok {
		return attestRoute{}, fmt.Errorf("controller: attestation ring is empty")
	}
	return c.routeForNode(owner)
}

// maxShardRedirects bounds how many wrong-shard answers one logical call
// follows. Each redirect goes straight to the owner the refusing shard
// named, so one hop suffices unless the ring moved again mid-flight; two
// covers that narrow race without letting a confused plane loop.
const maxShardRedirects = 2

// callRouted runs fn against a route, following wrong-shard refusals to
// the named owner. It returns the route that finally answered (or the last
// one tried), so callers verify reports against the key that actually
// signed them. Errors other than a parseable wrong-shard refusal — and
// wrong-shard refusals naming no owner — propagate unchanged, keeping the
// existing degradation taxonomy intact: redirects happen strictly before
// the RemoteError-vs-transport classification at the call sites.
func (c *Controller) callRouted(rt attestRoute, fn func(attestRoute) error) (attestRoute, error) {
	for hop := 0; ; hop++ {
		err := fn(rt)
		if err == nil || hop >= maxShardRedirects {
			return rt, err
		}
		var rerr *rpc.RemoteError
		if !errors.As(err, &rerr) {
			return rt, err
		}
		ws, ok := shard.ParseWrongShard(rerr.Msg)
		if !ok || ws.Owner == "" || ws.Owner == rt.node {
			return rt, err
		}
		next, routeErr := c.routeForNode(ws.Owner)
		if routeErr != nil {
			return rt, err
		}
		c.metrics.Counter("controller/wrong-shard-redirects").Inc()
		rt = next
	}
}

// callVM runs one VM-addressed exchange against the shard owning vid and
// returns the route that answered. fn issues the call on the route it is
// handed, so every client still comes off an attestRoute and the method
// stays a constant the shardroute and noncefresh analyzers can see.
func (c *Controller) callVM(vid string, fn func(attestRoute) error) (attestRoute, error) {
	rt, err := c.routeForVM(vid)
	if err != nil {
		return rt, err
	}
	return c.callRouted(rt, fn)
}

// badReportError marks a report the answering shard delivered but that
// failed verification. A verifiedAppraisal failure is one of three classes:
// this, a shard refusal (*rpc.RemoteError), or — anything else —
// unreachable infrastructure. It prints as the verification failure.
type badReportError struct{ err error }

func (e *badReportError) Error() string { return e.err.Error() }

func isBadReport(err error) bool {
	var bad *badReportError
	return errors.As(err, &bad)
}

// verifiedAppraisal is the controller's one requester for protocol hop 2:
// route by VM id, charge the hop RTT, appraise with a fresh N2 per attempt
// inside the redirect loop, and verify the report under the key of the
// shard that answered and that N2. RPC attempts nest under sp (nil when
// untraced). Callers keep only what a failure of each class means to them.
func (c *Controller) verifiedAppraisal(sp *obs.ActiveSpan, vid, serverID string, p properties.Property) (*wire.Report, error) {
	rt, err := c.routeForVM(vid)
	if err != nil {
		return nil, err
	}
	c.cfg.Clock.Advance(c.cfg.Latency.HopRTT) // controller ↔ attestation server
	var rep *wire.Report
	var n2 cryptoutil.Nonce
	rt, err = c.callRouted(rt, func(rt attestRoute) error {
		var aerr error
		rep, n2, aerr = c.appraise(obs.ContextWith(context.Background(), sp), rt, vid, serverID, p)
		return aerr
	})
	if err != nil {
		return nil, err
	}
	if err := wire.VerifyReport(rep, rt.key, vid, p, n2); err != nil {
		return nil, &badReportError{err}
	}
	return rep, nil
}

// appraise requests one appraisal, regenerating N2 on every retry attempt
// so the Attestation Server's replay cache never rejects a re-issue. It
// returns the nonce the delivered report must answer. ctx may carry a span
// (obs.ContextWith), under which each RPC attempt records a child span.
func (c *Controller) appraise(ctx context.Context, rt attestRoute, vid, serverID string, p properties.Property) (*wire.Report, cryptoutil.Nonce, error) {
	var n2 cryptoutil.Nonce
	var rep wire.Report
	err := rt.client.CallFresh(ctx, attestsrv.MethodAppraise, func(int) (any, error) {
		n, err := cryptoutil.NewNonce(c.cfg.Rand)
		if err != nil {
			return nil, err
		}
		n2 = n
		return wire.AppraisalRequest{Vid: vid, ServerID: serverID, Prop: p, N2: n}, nil
	}, &rep)
	if err != nil {
		return nil, cryptoutil.Nonce{}, err
	}
	return &rep, n2, nil
}
