// Package customer is the paper's fourth entity: the cloud customer, the
// attestation protocol's initiator and end-verifier (Fig. 3, hop 1). It
// speaks the nova api to a Cloud Controller over a secure channel pinned
// to the controller's key, and trusts no verdict until it has checked the
// controller's signature, the VM id, the property and its own nonce N1
// (and with it the quote Q1) on the report. The in-process testbed and
// cmd/monatt-cli both drive this one client.
package customer

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"cloudmonatt/internal/controller"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/secchan"
	"cloudmonatt/internal/wire"
)

// controllerName is the identity name every Cloud Controller enrolls under.
const controllerName = "cloud-controller"

// Config says who the customer is and where its controller lives.
type Config struct {
	Identity *cryptoutil.Identity
	Network  rpc.Network
	// Addr is the controller's nova api endpoint.
	Addr string
	// ControllerKey is VKc, provisioned out of band: the only peer the
	// channel accepts, and the key every report is verified under.
	ControllerKey ed25519.PublicKey
	// RPC tunes the fault-tolerant channel; it bounds every operation end
	// to end (rpc.Policy.Budget).
	RPC rpc.Policy
}

// Customer is a connected cloud customer.
type Customer struct {
	client  *rpc.ReconnectClient
	ctrlKey ed25519.PublicKey
}

// Connect dials the controller's nova api and authenticates both ends.
func Connect(cfg Config) (*Customer, error) {
	ctrlKey := append(ed25519.PublicKey(nil), cfg.ControllerKey...)
	cu := &Customer{
		ctrlKey: ctrlKey,
		client: rpc.NewReconnectClient(rpc.ClientConfig{
			Network: cfg.Network,
			Addr:    cfg.Addr,
			Peer:    controllerName,
			Secchan: secchan.Config{Identity: cfg.Identity, Verify: func(name string, key ed25519.PublicKey) error {
				if name != controllerName || !cryptoutil.KeyEqual(key, ctrlKey) {
					return errors.New("customer: controller identity mismatch")
				}
				return nil
			}},
			Policy: cfg.RPC,
		}),
	}
	if err := cu.client.Connect(context.Background()); err != nil {
		cu.client.Close()
		return nil, err
	}
	return cu, nil
}

// Launch requests a VM. The idempotency key lets the request be retried
// across connection failures without double-launching.
func (cu *Customer) Launch(req controller.LaunchRequest) (controller.LaunchResult, error) {
	var res controller.LaunchResult
	err := cu.client.CallIdem(context.Background(), controller.MethodLaunchVM, req, &res)
	return res, err
}

// Attest issues a one-time attestation and end-verifies the report chain:
// the customer checks the controller's signature, its own nonce N1, and the
// quote Q1 before trusting the verdict. A stale verdict (degraded mode) is
// surfaced like a fresh one; use AttestReport for the staleness flags.
func (cu *Customer) Attest(vid string, p properties.Property) (properties.Verdict, error) {
	rep, err := cu.AttestReport(vid, p)
	if err != nil {
		return properties.Verdict{}, err
	}
	return rep.Verdict, nil
}

// AttestReport is Attest returning the full verified CustomerReport
// (including the Stale/Age degradation flags). N1 is regenerated on every
// retry attempt so the controller's replay cache never rejects a re-issue,
// and the report must answer the N1 of the attempt that delivered it.
func (cu *Customer) AttestReport(vid string, p properties.Property) (*wire.CustomerReport, error) {
	method := controller.MethodRuntimeAttestCurrent
	if p == properties.StartupIntegrity {
		method = controller.MethodStartupAttestCurrent
	}
	var n1 cryptoutil.Nonce
	var rep wire.CustomerReport
	if err := cu.client.CallFresh(context.Background(), method, func() (_ any, err error) {
		if n1, err = cryptoutil.NewNonce(rand.Reader); err != nil {
			return nil, err
		}
		// The trace ID is minted from the request nonce: deterministic
		// under the seeded RNG, and fresh per retry attempt like N1 itself.
		return wire.AttestRequest{Vid: vid, Prop: p, N1: n1, Trace: obs.MintTrace(n1[:])}, nil
	}, &rep); err != nil {
		return nil, err
	}
	if err := wire.VerifyCustomerReport(&rep, cu.ctrlKey, vid, p, n1); err != nil {
		return nil, fmt.Errorf("customer: rejecting report: %w", err)
	}
	return &rep, nil
}

// TraceOf returns the trace ID of the request a verified report answers —
// the ID the customer minted from that request's N1, under which the
// operator surface (/traces) files the request's spans.
func TraceOf(rep *wire.CustomerReport) string { return obs.MintTrace(rep.N1[:]) }

// StartPeriodic arms periodic attestation (runtime_attest_periodic).
func (cu *Customer) StartPeriodic(vid string, p properties.Property, freq time.Duration) error {
	return cu.startPeriodic(wire.PeriodicRequest{Vid: vid, Prop: p, Freq: freq})
}

// StartPeriodicRandom arms periodic attestation at random intervals around
// the given mean frequency, so a co-resident attacker cannot predict the
// measurement windows.
func (cu *Customer) StartPeriodicRandom(vid string, p properties.Property, freq time.Duration) error {
	return cu.startPeriodic(wire.PeriodicRequest{Vid: vid, Prop: p, Freq: freq, Random: true})
}

func (cu *Customer) startPeriodic(req wire.PeriodicRequest) (err error) {
	if req.N1, err = cryptoutil.NewNonce(rand.Reader); err != nil {
		return err
	}
	req.Trace = obs.MintTrace(req.N1[:])
	return cu.client.CallIdem(context.Background(), controller.MethodRuntimeAttestPeriodic, req, nil)
}

// FetchPeriodic drains and end-verifies accumulated periodic results: the
// verdicts since the last drain, in the order they were produced.
func (cu *Customer) FetchPeriodic(vid string, p properties.Property) ([]properties.Verdict, error) {
	return cu.drainPeriodic(controller.MethodFetchPeriodic, vid, p)
}

// StopPeriodic stops periodic attestation (stop_attest_periodic) and
// returns any undelivered verified results.
func (cu *Customer) StopPeriodic(vid string, p properties.Property) ([]properties.Verdict, error) {
	return cu.drainPeriodic(controller.MethodStopAttestPeriodic, vid, p)
}

func (cu *Customer) drainPeriodic(method, vid string, p properties.Property) ([]properties.Verdict, error) {
	n1, err := cryptoutil.NewNonce(rand.Reader)
	if err != nil {
		return nil, err
	}
	var batch wire.CustomerBatch
	// Fetch/stop drain results controller-side; the idempotency key makes a
	// retried drain replay the recorded batch instead of losing it.
	if err = cu.client.CallIdem(context.Background(), method,
		wire.StopPeriodicRequest{Vid: vid, Prop: p, N1: n1, Trace: obs.MintTrace(n1[:])}, &batch); err != nil {
		return nil, err
	}
	// One signature covers the whole drain: a verdict dropped, reordered or
	// taken from another drain fails it, and nothing of it is returned.
	if err = wire.VerifyCustomerBatch(&batch, cu.ctrlKey, vid, p, n1); err != nil {
		return nil, fmt.Errorf("customer: rejecting periodic batch: %w", err)
	}
	return batch.Verdicts, nil
}

// Status fetches the desired/observed state join the controller keeps for
// one of the customer's VMs: lifecycle state, placement, the teardown
// finalizer and the typed reconcile conditions.
func (cu *Customer) Status(vid string) (wire.VMStatus, error) {
	var st wire.VMStatus
	err := cu.client.CallCtx(context.Background(), controller.MethodVMStatus, wire.VidRequest{Vid: vid}, &st)
	return st, err
}

// ListVMs lists this customer's (non-terminated) VMs.
func (cu *Customer) ListVMs() ([]controller.VMSummary, error) {
	var vms controller.VMSummaryList
	err := cu.client.CallCtx(context.Background(), controller.MethodListVMs, nil, &vms)
	return vms, err
}

// Events lists the remediation responses executed on this customer's VMs.
func (cu *Customer) Events() ([]controller.ResponseEvent, error) {
	var events controller.ResponseEventList
	err := cu.client.CallCtx(context.Background(), controller.MethodListEvents, nil, &events)
	return events, err
}

// Terminate releases the VM (idempotency-keyed: never executed twice).
func (cu *Customer) Terminate(vid string) error {
	return cu.client.CallIdem(context.Background(), controller.MethodTerminateVM, wire.VidRequest{Vid: vid}, nil)
}

// Close tears down the customer's channel.
func (cu *Customer) Close() error { return cu.client.Close() }
