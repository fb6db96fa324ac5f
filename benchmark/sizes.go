package main

import "time"

// Every size that defines what a workload *is* lives here, as a constant:
// no flag changes them, so two result files are always comparable. The
// rationale for each number comes from a scratch probe of the seed tree
// (2 vCPU, go1.24, in-memory network); README.md repeats the shares.

// size is one workload's fleet shape. Testbeds are built with zero-value
// cloudmonatt.Options except Seed, Servers and (attest-fleet only) Shards,
// so a later PR that changes a default is measured through the default.
type size struct {
	servers int
	vms     int
	shards  int
}

var sizes = map[string]size{
	// One server, one VM: the simulator advances one idle-ish hypervisor
	// (~0.1 ms of ~0.7 ms/op), so protocol layers — wire, rpc, secchan,
	// cryptoutil, pca, trust, ledger, obs — carry the op.
	"attest-steady": {servers: 1, vms: 1},
	// Eight servers, four VMs each, four ring shards: every Clock.Advance
	// now steps eight hypervisors with 32 domains (≥60 % of the op), half
	// the properties are windowed, and the ring + redirect path routes.
	"attest-fleet": {servers: 8, vms: 32, shards: 4},
	// Four servers, four VMs each, two streams per VM: 32 periodic streams
	// on one attestation server's deadline heap and worker pool.
	"periodic": {servers: 4, vms: 16},
	// Two servers so placement has a choice; VMs live for one cycle only.
	"churn": {servers: 2, vms: 0},
}

const (
	// procs is GOMAXPROCS for every run. The load is a closed loop with one
	// request in flight, so the entities' goroutines run one after another;
	// a second P does not shorten the request, it moves every hand-off
	// between goroutines onto a wake-up of the other vCPU, and how long that
	// takes is the shared host's scheduler, not the program. On the seed tree
	// one P is faster on three workloads of four (attest-steady 0.56 ms per
	// attestation against 0.57-0.71) and repeats an order of magnitude
	// better: op_ms_p90 on attest-steady spread 2.7 % over eight runs with
	// one P and 15.1 % with two.
	procs = 1

	// defaultRounds timed rounds per run, each on a fresh testbed. Eight
	// rounds of three seconds (at the 24 s BENCHMARK.json asks for) give
	// eight set-ups behind setup_s, and ~4 700 attest-steady, ~180
	// attest-fleet, ~520 churn and ~15 periodic latency samples a round.
	defaultRounds = 8

	// warmupOps attestations run inside every round's set-up, so the
	// attestation-server→cloud-server channels are dialled, sessions are
	// certified and caches are filled before the timed region starts.
	warmupOps = 8

	// Periodic stream frequencies (virtual). One op-step runs periodicStep
	// of virtual time and then drains every stream. Nominally that is 16 VMs
	// × (12 + 6) = 288 reports per step; on the shared virtual clock every
	// appraisal costs ~0.63 s, the streams fall behind their periods, and a
	// step delivers 96.
	periodicRuntimeFreq = 5 * time.Second
	periodicCPUFreq     = 10 * time.Second
	periodicStep        = time.Minute

	// echoBody is the body size of the rpc echo leaf and of the message the
	// sign/verify leaves work on: about one encoded wire.Evidence, the
	// largest message of an attestation (wire.evidence_bytes reads 518 for
	// runtime-integrity on the seed tree).
	echoBody = 459
)

// windowsPerRound cuts every timed round into windows, each of which gives
// one reading of every time metric (measure.go); the reported value is the
// median over all of a run's windows. A window is as short as leaves about
// fifty latency samples behind its percentiles — at the 3 s round of
// BENCHMARK.json 0.25 s on attest-steady (~500 attestations), 1 s on
// attest-fleet (~60 visits), 0.5 s on churn (~110 cycles) — so that a run has
// many of them and a neighbour's burst lands on few. A periodic round is 15
// steps of 0.2 s and stays whole.
var windowsPerRound = map[string]int{"attest-steady": 12, "attest-fleet": 3, "periodic": 1, "churn": 6}

// pooledPercentiles names the workloads whose op_ms_p50 and op_ms_p90 are
// read off the latency samples of the whole run, not off each window. A
// periodic round is one window of 15 steps on a quiet host and of 9 on a slow
// one, because rounds are bounded by the wall clock: the 90th percentile of
// 15 samples lies below the second-slowest, that of 9 next to the slowest,
// and read per round op_ms_p90 was 1.06 times op_ms_p50 in rounds of 15 to 18
// steps and 1.11 times in rounds of 10 to 13: it rose with the host's speed
// alone. The 70 to 120 steps of a run leave seven or more above it.
var pooledPercentiles = map[string]bool{"periodic": true}

// allocWindow is how many operations at the start of every timed region
// allocs_per_op and kb_per_op are counted over (visits on attest-fleet,
// steps on periodic, cycles on churn), each ~0.7–1 s of a 3 s round. A fixed
// count makes the two metrics a property of the program and the seed; over
// the whole timed region they would depend on how many operations the
// machine got through, because per-op allocation on churn grows with the
// number of VMs the controller has ever launched (it spread 13–24 % over
// ten seeds that way, 0.01–0.2 % on the other three workloads).
//
// The same counts size the untimed warm-up segment that starts a run, after
// which rss_mb_peak is read: the peak resident set of building one testbed
// and doing a fixed amount of work, again independent of machine speed.
var allocWindow = map[string]int{"attest-steady": 1000, "attest-fleet": 32, "periodic": 3, "churn": 100}

// fixed holds the counts of the traced run that are fixed rather than
// timed, so that every exact count — crypto ops, ledger appends, spans,
// wire bytes, virtual time — is identical across two runs of one seed.
type fixed struct {
	// tracedOps is the op count of the traced round and its untraced twin
	// (steps for periodic, cycles for churn).
	tracedOps map[string]int
	// csrPool is how many fresh certification requests the pca.certify_us
	// leaf certifies; minting them stays outside its timed region.
	csrPool int
	// schedStreams is the stream count of the periodic scheduler leaf:
	// large enough that the deadline heap is deep.
	schedStreams int
	// ledgerVerifyEntries sizes the ledger.verify_ms_per_10k leaf.
	ledgerVerifyEntries int
}

// fullSize is what the command runs: each traced round takes ~0.3–0.5 s.
var fullSize = fixed{
	tracedOps:           map[string]int{"attest-steady": 400, "attest-fleet": 128, "periodic": 2, "churn": 40},
	csrPool:             4096,
	schedStreams:        20000,
	ledgerVerifyEntries: 10000,
}

// toySize is what smoke_test.go runs, to stay within a few seconds.
var toySize = fixed{
	tracedOps:           map[string]int{"attest-steady": 16, "attest-fleet": 8, "periodic": 1, "churn": 2},
	csrPool:             32,
	schedStreams:        500,
	ledgerVerifyEntries: 500,
}
