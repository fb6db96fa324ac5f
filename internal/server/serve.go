package server

import (
	"fmt"
	"net"

	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/wire"
)

// RPC method names served by a cloud server. "measure" is the Attestation
// Client endpoint; the rest form the Management Client, whose requests are
// a LaunchSpec ("launch") or a wire.VidRequest (everything else) and whose
// replies are a bodiless ack, a LaunchSpec ("migrate-out") or a VMInfo.
const (
	MethodMeasure    = "measure"
	MethodLaunch     = "launch"
	MethodTerminate  = "terminate"
	MethodSuspend    = "suspend"
	MethodResume     = "resume"
	MethodMigrateOut = "migrate-out"
	MethodInfo       = "vminfo"
)

// Handler returns the RPC dispatch for this server.
func (s *Server) Handler() rpc.Handler {
	return func(peer rpc.Peer, method string, body []byte) ([]byte, error) {
		switch method {
		case MethodMeasure:
			var req wire.MeasureRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			sp := s.tracer.Start(peer.Trace, "measure")
			sp.SetVM(req.Vid, "")
			ev, err := s.Measure(req)
			sp.EndErr(err)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(ev)
		case MethodLaunch:
			var spec LaunchSpec
			if err := rpc.Decode(body, &spec); err != nil {
				return nil, err
			}
			if err := s.Launch(spec); err != nil {
				return nil, err
			}
			return nil, nil
		case MethodTerminate, MethodSuspend, MethodResume:
			var req wire.VidRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			var err error
			switch method {
			case MethodTerminate:
				err = s.Terminate(req.Vid)
			case MethodSuspend:
				err = s.Suspend(req.Vid)
			case MethodResume:
				err = s.Resume(req.Vid)
			}
			if err != nil {
				return nil, err
			}
			return nil, nil
		case MethodMigrateOut:
			var req wire.VidRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			spec, err := s.MigrateOut(req.Vid)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(spec)
		case MethodInfo:
			var req wire.VidRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			info, err := s.Info(req.Vid)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(info)
		}
		return nil, fmt.Errorf("server %s: unknown method %q", s.cfg.Name, method)
	}
}

// Serve starts the RPC endpoint on l. Verify gates which peers may speak
// to this server (the Attestation Server and the Cloud Controller).
// Remediation RPCs — terminate, suspend, resume, migrate-out, and launch —
// arrive bearing idempotency keys from the controller; the rpc layer's
// per-listener cache executes each key at most once and replays the
// recorded response to retried duplicates, so a redelivered terminate
// cannot kill a reincarnated VM.
func (s *Server) Serve(l net.Listener, verify secchan.VerifyPeer) {
	go rpc.Serve(l, secchan.Config{Identity: s.Identity(), Verify: verify, Rand: s.cfg.Rand, Tickets: s.tickets}, s.Handler())
}
