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

import (
	"errors"
	"fmt"

	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/shard"
)

// attestRoute is one resolved path to an Attestation Server.
type attestRoute struct {
	client *rpc.ReconnectClient
	key    []byte // the shard's report-signing public key
	node   string // shard name on the ring
}

// RegisterAttestShard records one shard of the attestation plane:
// its name on the ring, its endpoint, and its report-signing key
// (provisioned out of band, like any trust anchor). Re-registering a name
// replaces the endpoint and key.
func (c *Controller) RegisterAttestShard(node, addr string, pub []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shardAddrs[node] = addr
	c.shardPubs[node] = append([]byte(nil), pub...)
	// Drop a stale client so the next route re-dials the new endpoint.
	delete(c.shardClients, node)
}

// routeForNode resolves a route to a named shard.
func (c *Controller) routeForNode(node string) (attestRoute, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addr, ok := c.shardAddrs[node]
	if !ok {
		return attestRoute{}, fmt.Errorf("controller: unknown attestation shard %q", node)
	}
	cl, ok := c.shardClients[node]
	if !ok {
		cl = c.newClient("attest-"+node, addr)
		c.shardClients[node] = cl
	}
	return attestRoute{client: cl, key: c.shardPubs[node], node: node}, nil
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
		c.cfg.Metrics.Counter("controller/wrong-shard-redirects").Inc()
		rt = next
	}
}

// shardKeys snapshots every registered shard's report-signing key.
func (c *Controller) shardKeys() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, 0, len(c.shardPubs))
	for _, k := range c.shardPubs {
		out = append(out, append([]byte(nil), k...))
	}
	return out
}
