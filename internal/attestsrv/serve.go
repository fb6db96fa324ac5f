package attestsrv

import (
	"net"
	"time"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/wire"
)

// RPC methods served by the Attestation Server (for the Cloud Controller).
//
// Every method below is vm-addressed: the handler gates on ring ownership
// of the VM id (checkOwner), so a call landing on the wrong shard draws a
// typed WrongShardError. The marker is machine-read by monatt-vet's
// shardroute analyzer — call sites must reach these through an
// attestRoute/callRouted pair, never a raw rpc client.
const (
	MethodAppraise      = "appraise"       // vm-addressed
	MethodRegisterVM    = "register-vm"    // vm-addressed
	MethodForgetVM      = "forget-vm"      // vm-addressed
	MethodPeriodicStart = "periodic-start" // vm-addressed
	MethodPeriodicStop  = "periodic-stop"  // vm-addressed
	MethodPeriodicFetch = "periodic-fetch" // vm-addressed
	MethodRebindVM      = "rebind-vm"      // vm-addressed
)

// RebindRequest re-points a VM's periodic tasks after migration.
type RebindRequest struct {
	Vid      string
	ServerID string
}

// PeriodicControl starts or addresses a periodic attestation task. N2 is
// the controller's fresh nonce for a drain (periodic-fetch, periodic-stop),
// under which the shard signs the batch it returns.
type PeriodicControl struct {
	Vid      string
	ServerID string
	Prop     properties.Property
	Freq     time.Duration
	Random   bool
	N2       cryptoutil.Nonce
}

// Handler returns the RPC dispatch for the Attestation Server.
//
// Every VM-addressed method is gated on ring ownership (checkOwner) at the
// RPC boundary, not inside the Server methods: in-process periodic
// appraisals of a task exported mid-flight must still resolve through the
// engine's stopped-discard accounting rather than erroring. A misrouted
// request is refused with a WrongShardError, which reaches the caller as a
// handler refusal (rpc.RemoteError) — deliberately outside the transport
// retry taxonomy, since re-sending the same bytes here can never succeed.
func (s *Server) Handler() rpc.Handler {
	return rpc.Methods{
		MethodAppraise: rpc.Method(func(peer rpc.Peer, req *wire.AppraisalRequest) (any, error) {
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			return s.AppraiseTraced(peer.Trace, *req)
		}),
		MethodRegisterVM: rpc.Method(func(_ rpc.Peer, rec *VMRecord) (any, error) {
			if err := s.checkOwner(rec.Vid); err != nil {
				return nil, err
			}
			s.RegisterVM(*rec)
			return nil, nil
		}),
		MethodForgetVM: rpc.Method(func(_ rpc.Peer, req *wire.VidRequest) (any, error) {
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			s.ForgetVM(req.Vid)
			return nil, nil
		}),
		MethodPeriodicStart: rpc.Method(func(_ rpc.Peer, req *PeriodicControl) (any, error) {
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			return nil, s.StartPeriodic(*req)
		}),
		MethodPeriodicStop: rpc.Method(func(_ rpc.Peer, req *PeriodicControl) (any, error) {
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			return s.StopPeriodic(req.Vid, req.Prop, req.N2), nil
		}),
		MethodPeriodicFetch: rpc.Method(func(_ rpc.Peer, req *PeriodicControl) (any, error) {
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			return s.FetchPeriodic(req.Vid, req.Prop, req.N2), nil
		}),
		MethodRebindVM: rpc.Method(func(_ rpc.Peer, req *RebindRequest) (any, error) {
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			s.RebindVM(req.Vid, req.ServerID)
			return nil, nil
		}),
	}.Handler("attestsrv")
}

// Serve starts the Attestation Server's RPC endpoint on l.
func (s *Server) Serve(l net.Listener, verify secchan.VerifyPeer) {
	go rpc.Serve(l, secchan.Config{Identity: s.cfg.Identity, Verify: verify, Rand: s.cfg.Rand}, s.Handler())
}
