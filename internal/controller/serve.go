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

// Handler returns the nova api dispatch, built once by New.
func (c *Controller) Handler() rpc.Handler { return c.api }

// apiMethods is the nova api's dispatch table.
func (c *Controller) apiMethods() rpc.Methods {
	return rpc.Methods{
		MethodLaunchVM: rpc.Method(func(peer rpc.Peer, req *LaunchRequest) (any, error) {
			// The owner is who the channel authenticated, never what the
			// request says.
			req.Owner = peer.Name
			sp := c.apiRoot(peer, MethodLaunchVM, "", "", "")
			res, err := c.LaunchVMTraced(sp.Context(), *req)
			sp.EndErr(err)
			return res, err
		}),
		MethodTerminateVM: rpc.Method(func(_ rpc.Peer, req *wire.VidRequest) (any, error) {
			return nil, c.TerminateVM(req.Vid)
		}),
		// Both map to a one-time attestation; startup_attest_current is
		// issued before relying on a freshly launched VM, while
		// runtime_attest_current covers the running VM (Table 1).
		MethodStartupAttestCurrent: c.attestMethod(MethodStartupAttestCurrent),
		MethodRuntimeAttestCurrent: c.attestMethod(MethodRuntimeAttestCurrent),
		MethodRuntimeAttestPeriodic: rpc.Method(func(peer rpc.Peer, req *wire.PeriodicRequest) (any, error) {
			sp := c.apiRoot(peer, MethodRuntimeAttestPeriodic, req.Trace, req.Vid, string(req.Prop))
			err := c.StartPeriodic(*req)
			sp.EndErr(err)
			return nil, err
		}),
		MethodStopAttestPeriodic: c.drainMethod(MethodStopAttestPeriodic, true),
		MethodFetchPeriodic:      c.drainMethod(MethodFetchPeriodic, false),
		// The listings and the status are scoped to the authenticated peer:
		// a customer sees only its VMs.
		MethodListVMs: func(peer rpc.Peer, _ []byte) ([]byte, error) {
			return rpc.Encode(VMSummaryList(c.ListVMs(peer.Name)))
		},
		MethodListEvents: func(peer rpc.Peer, _ []byte) ([]byte, error) {
			return rpc.Encode(ResponseEventList(c.EventsFor(peer.Name)))
		},
		MethodVMStatus: rpc.Method(func(peer rpc.Peer, req *wire.VidRequest) (any, error) {
			st, err := c.VMStatus(req.Vid)
			if err != nil {
				return nil, err
			}
			if st.Owner != peer.Name {
				return nil, fmt.Errorf("controller: no such VM %q", req.Vid)
			}
			return st, nil
		}),
	}
}

// attestMethod is the entry of a one-time attestation command.
func (c *Controller) attestMethod(method string) func(rpc.Peer, []byte) ([]byte, error) {
	return rpc.Method(func(peer rpc.Peer, req *wire.AttestRequest) (any, error) {
		sp := c.apiRoot(peer, method, req.Trace, req.Vid, string(req.Prop))
		rep, err := c.AttestTraced(sp.Context(), *req)
		if err == nil && rep != nil && rep.Stale {
			sp.Annotate("degraded", "stale-report")
		}
		sp.EndErr(err)
		return rep, err
	})
}

// drainMethod is the entry of a periodic drain; stop also ends the stream.
func (c *Controller) drainMethod(method string, stop bool) func(rpc.Peer, []byte) ([]byte, error) {
	return rpc.Method(func(peer rpc.Peer, req *wire.StopPeriodicRequest) (any, error) {
		sp := c.apiRoot(peer, method, req.Trace, req.Vid, string(req.Prop))
		batch, err := c.DrainPeriodic(*req, stop)
		sp.EndErr(err)
		return batch, err
	})
}
