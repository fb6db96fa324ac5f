package attestsrv

import (
	"fmt"
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
	return func(peer rpc.Peer, method string, body []byte) ([]byte, error) {
		switch method {
		case MethodAppraise:
			var req wire.AppraisalRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			rep, err := s.AppraiseTraced(peer.Trace, req)
			if err != nil {
				return nil, err
			}
			return rpc.Encode(rep)
		case MethodRegisterVM:
			var rec VMRecord
			if err := rpc.Decode(body, &rec); err != nil {
				return nil, err
			}
			if err := s.checkOwner(rec.Vid); err != nil {
				return nil, err
			}
			s.RegisterVM(rec)
			return nil, nil
		case MethodForgetVM:
			var req wire.VidRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			s.ForgetVM(req.Vid)
			return nil, nil
		case MethodPeriodicStart:
			var req PeriodicControl
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			var err error
			if req.Random {
				err = s.StartPeriodicRandom(req.Vid, req.ServerID, req.Prop, req.Freq)
			} else {
				err = s.StartPeriodic(req.Vid, req.ServerID, req.Prop, req.Freq)
			}
			if err != nil {
				return nil, err
			}
			return nil, nil
		case MethodPeriodicStop, MethodPeriodicFetch:
			var req PeriodicControl
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			if method == MethodPeriodicStop {
				return rpc.Encode(s.StopPeriodic(req.Vid, req.Prop, req.N2))
			}
			return rpc.Encode(s.FetchPeriodic(req.Vid, req.Prop, req.N2))
		case MethodRebindVM:
			var req RebindRequest
			if err := rpc.Decode(body, &req); err != nil {
				return nil, err
			}
			if err := s.checkOwner(req.Vid); err != nil {
				return nil, err
			}
			s.RebindVM(req.Vid, req.ServerID)
			return nil, nil
		}
		return nil, fmt.Errorf("attestsrv: unknown method %q", method)
	}
}

// Serve starts the Attestation Server's RPC endpoint on l.
func (s *Server) Serve(l net.Listener, verify secchan.VerifyPeer) {
	go rpc.Serve(l, secchan.Config{Identity: s.cfg.Identity, Verify: verify, Rand: s.cfg.Rand}, s.Handler())
}
