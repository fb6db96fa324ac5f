package server

import (
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
	return rpc.Methods{
		MethodMeasure: rpc.Method(func(peer rpc.Peer, req *wire.MeasureRequest) (any, error) {
			sp := s.tracer.Start(peer.Trace, "measure")
			sp.SetVM(req.Vid, "")
			ev, err := s.Measure(*req)
			sp.EndErr(err)
			return ev, err
		}),
		MethodLaunch: rpc.Method(func(_ rpc.Peer, spec *LaunchSpec) (any, error) {
			return nil, s.Launch(*spec)
		}),
		MethodTerminate: rpc.Method(func(_ rpc.Peer, req *wire.VidRequest) (any, error) {
			return nil, s.Terminate(req.Vid)
		}),
		MethodSuspend: rpc.Method(func(_ rpc.Peer, req *wire.VidRequest) (any, error) {
			return nil, s.Suspend(req.Vid)
		}),
		MethodResume: rpc.Method(func(_ rpc.Peer, req *wire.VidRequest) (any, error) {
			return nil, s.Resume(req.Vid)
		}),
		MethodMigrateOut: rpc.Method(func(_ rpc.Peer, req *wire.VidRequest) (any, error) {
			return s.MigrateOut(req.Vid)
		}),
		MethodInfo: rpc.Method(func(_ rpc.Peer, req *wire.VidRequest) (any, error) {
			return s.Info(req.Vid)
		}),
	}.Handler("server " + s.cfg.Name)
}

// Serve starts the RPC endpoint on l. Verify gates which peers may speak
// to this server (the Attestation Server and the Cloud Controller).
// Launch, terminate, resume and migrate-out arrive bearing idempotency
// keys from the controller; the rpc layer's per-listener cache executes
// each key at most once and replays the recorded response to retried
// duplicates, so a redelivered terminate cannot kill a reincarnated VM and
// a redelivered resume cannot fail on the VM the first one resumed.
// Suspend carries none: suspending a suspended VM is a no-op.
func (s *Server) Serve(l net.Listener, verify secchan.VerifyPeer) {
	go rpc.Serve(l, secchan.Config{Identity: s.Identity(), Verify: verify, Rand: s.cfg.Rand, Tickets: s.tickets}, s.Handler())
}
