package controller

import (
	"fmt"

	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/wire"
)

// RPC methods of the customer-facing nova api, including the four
// attestation commands of Table 1.
const (
	MethodLaunchVM              = "launch_vm"
	MethodTerminateVM           = "terminate_vm"
	MethodStartupAttestCurrent  = "startup_attest_current"
	MethodRuntimeAttestCurrent  = "runtime_attest_current"
	MethodRuntimeAttestPeriodic = "runtime_attest_periodic"
	MethodStopAttestPeriodic    = "stop_attest_periodic"
	MethodFetchPeriodic         = "fetch_attest_periodic"
	MethodListVMs               = "list_vms"
	MethodListEvents            = "list_events"
	MethodVMStatus              = "vm_status"
)

// apiRoot opens the customer-facing root span for one nova api request.
// The trace ID travels two ways: the customer mints it into the wire
// request (from N1) and the rpc envelope carries the caller's span context;
// the explicit header wins so the trace survives untraced relay hops.
func (c *Controller) apiRoot(peer rpc.Peer, method, trace, vid, prop string) *obs.ActiveSpan {
	parent := peer.Trace
	if trace != "" {
		parent = obs.SpanContext{Trace: trace}
	}
	sp := c.apiTracer.Start(parent, "api:"+method)
	sp.SetVM(vid, prop)
	if peer.Name != "" {
		sp.Annotate("customer", peer.Name)
	}
	return sp
}

// Handler returns the nova api dispatch.
func (c *Controller) Handler() rpc.Handler {
	return func(peer rpc.Peer, method string, body []byte) ([]byte, error) {
		if c.cfg.Serialize != nil {
			c.cfg.Serialize.Lock()
			defer c.cfg.Serialize.Unlock()
		}
		switch method {
		case MethodLaunchVM:
			var req LaunchRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			// The owner is who the channel authenticated, never what the
			// request says.
			req.Owner = peer.Name
			sp := c.apiRoot(peer, method, "", "", "")
			res, err := c.LaunchVMTraced(sp.Context(), req)
			sp.EndErr(err)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(res)
		case MethodTerminateVM:
			var req wire.VidRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			if err := c.TerminateVM(req.Vid); err != nil {
				return nil, err
			}
			return nil, nil
		case MethodStartupAttestCurrent, MethodRuntimeAttestCurrent:
			// Both map to a one-time attestation; startup_attest_current is
			// issued before relying on a freshly launched VM, while
			// runtime_attest_current covers the running VM (Table 1).
			var req wire.AttestRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			sp := c.apiRoot(peer, method, req.Trace, req.Vid, string(req.Prop))
			rep, err := c.AttestTraced(sp.Context(), req)
			if err == nil && rep != nil && rep.Stale {
				sp.Annotate("degraded", "stale-report")
			}
			sp.EndErr(err)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(rep)
		case MethodRuntimeAttestPeriodic:
			var req wire.PeriodicRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			sp := c.apiRoot(peer, method, req.Trace, req.Vid, string(req.Prop))
			err := c.StartPeriodic(req)
			sp.EndErr(err)
			if err != nil {
				return nil, err
			}
			return nil, nil
		case MethodStopAttestPeriodic, MethodFetchPeriodic:
			var req wire.StopPeriodicRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			sp := c.apiRoot(peer, method, req.Trace, req.Vid, string(req.Prop))
			batch, err := c.DrainPeriodic(req, method == MethodStopAttestPeriodic)
			sp.EndErr(err)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(batch)
		case MethodListVMs:
			// Scoped to the authenticated peer: a customer sees only its VMs.
			return rpc.Encode(VMSummaryList(c.ListVMs(peer.Name)))
		case MethodListEvents:
			return rpc.Encode(ResponseEventList(c.EventsFor(peer.Name)))
		case MethodVMStatus:
			var req wire.VidRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			st, err := c.VMStatus(req.Vid)
			if err != nil {
				return nil, err
			}
			// Scoped to the authenticated peer, like list_vms.
			if st.Owner != peer.Name {
				return nil, fmt.Errorf("controller: no such VM %q", req.Vid)
			}
			return rpc.Encode(st)
		}
		return nil, fmt.Errorf("controller: unknown method %q", method)
	}
}
