// Command monatt-cloud runs the complete CloudMonatt cloud — controller,
// attestation server shards, privacy CA and N cloud servers — in one process, with
// every entity speaking the real protocol over loopback TCP. It writes a
// bootstrap file containing the controller endpoint, the controller's
// public key, and an enrolled customer identity seed that monatt-cli uses
// to connect.
//
// With -admin-addr it also serves the operator telemetry surface over
// plain HTTP: /metrics (Prometheus text exposition), /healthz (per-entity
// liveness + circuit-breaker states), /traces (recent completed attestation
// traces as JSON, ?vm= filterable) and /debug/pprof.
//
// Usage:
//
//	monatt-cloud [-servers 3] [-shards 1] [-seed 1] [-bootstrap monatt-bootstrap.json]
//	             [-admin-addr 127.0.0.1:9190]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"cloudmonatt/internal/cloudsim"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/customer"
	"cloudmonatt/internal/metrics"
	"cloudmonatt/internal/obs"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/trust/driver"
)

func main() {
	servers := flag.Int("servers", 3, "number of cloud servers")
	shards := flag.Int("shards", 1, "attestation-server shards behind the consistent-hash ring (at least 1)")
	seed := flag.Int64("seed", 1, "simulation seed")
	bootstrapPath := flag.String("bootstrap", "monatt-bootstrap.json", "bootstrap file for monatt-cli")
	pump := flag.Duration("pump", 200*time.Millisecond, "virtual-clock pump interval (real time)")
	chaosDrop := flag.Float64("chaos-drop", 0, "inject connection-drop rate (0..1) on every link")
	chaosDelay := flag.Float64("chaos-delay", 0, "inject per-operation delay rate (0..1, up to 5ms each) on every link")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection RNG seed")
	adminAddr := flag.String("admin-addr", "", "serve the operator HTTP surface (/metrics, /healthz, /traces, /debug/pprof) on this address; empty disables it")
	trustBackend := flag.String("trust-backend", "tpm", "comma-separated trust backends assigned to servers round-robin (tpm, vtpm, sev-snp); a mixed list gives a mixed fleet")
	reattestEvery := flag.Duration("reattest-every", 0, "virtual-time interval for the reconcile loop to re-attest every active VM; 0 disables")
	flag.Parse()

	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "-shards: need at least 1 attestation-server shard, got %d\n", *shards)
		flag.Usage()
		os.Exit(2)
	}

	var backends []driver.Backend
	for _, f := range strings.Split(*trustBackend, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		b, err := driver.ParseBackend(f)
		if err != nil {
			log.Fatalf("-trust-backend: %v", err)
		}
		backends = append(backends, b)
	}

	var network rpc.Network = rpc.TCPNetwork{}
	if *chaosDrop > 0 || *chaosDelay > 0 {
		network = rpc.NewFaultNetwork(network, rpc.FaultConfig{
			Seed:      *chaosSeed,
			DropRate:  *chaosDrop,
			DelayRate: *chaosDelay,
			MaxDelay:  5 * time.Millisecond,
		})
		fmt.Printf("chaos mode: drop=%.0f%% delay=%.0f%% (seed %d)\n", *chaosDrop*100, *chaosDelay*100, *chaosSeed)
	}
	tb, err := cloudsim.New(cloudsim.Options{
		Seed:          *seed,
		Servers:       *servers,
		Shards:        *shards,
		Backends:      backends,
		Network:       network,
		ReattestEvery: *reattestEvery,
	})
	if err != nil {
		log.Fatalf("assembling cloud: %v", err)
	}

	cliID := cryptoutil.MustIdentity("cli-customer")
	tb.RegisterIdentity(cliID.Name, cliID.Public())
	bs, err := customer.WriteBootstrap(*bootstrapPath, tb.ControllerAddr, tb.Ctrl.PublicKey(), cliID)
	if err != nil {
		log.Fatal(err)
	}

	if *adminAddr != "" {
		regs := map[string]*metrics.Registry{
			"controller": tb.Ctrl.Metrics(),
			"attestsrv":  tb.Attest.Metrics(),
			"ledger":     tb.Ledger.Metrics(),
		}
		// The first shard keeps the bare prefix; the others are namespaced.
		for _, as := range tb.AttestServers[1:] {
			regs["attestsrv-"+as.Shard()] = as.Metrics()
		}
		mux := obs.AdminMux(obs.AdminConfig{
			Registries: regs,
			Store:      tb.Obs,
			Health:     tb.Health,
		})
		admin := &http.Server{Addr: *adminAddr, Handler: mux}
		go func() {
			if err := admin.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatalf("admin listener: %v", err)
			}
		}()
	}

	fmt.Printf("CloudMonatt cloud is up:\n")
	fmt.Printf("  controller (nova api):  %s\n", tb.ControllerAddr)
	fmt.Printf("  cloud servers:          %d (backends: %s)\n", *servers, *trustBackend)
	fmt.Printf("  attestation shards:     %d (consistent-hash ring, epoch %d)\n", *shards, tb.Ring.Epoch())
	fmt.Printf("  bootstrap written to:   %s\n", *bootstrapPath)
	fmt.Printf("  customer seed:          %s (%s)\n", bs.CustomerSeedPath, cryptoutil.Redact(cliID.Seed()))
	if *adminAddr != "" {
		fmt.Printf("  operator surface:       http://%s/{metrics,healthz,traces,debug/pprof}\n", *adminAddr)
	}
	fmt.Printf("use cmd/monatt-cli to launch and attest VMs; Ctrl-C to stop\n")

	// Pump virtual time forward so workloads run and periodic attestations
	// fire while the daemon idles in real time.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(*pump)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			tb.RunFor(*pump)
		case <-stop:
			fmt.Println("\nshutting down")
			if m := tb.Attest.Metrics().Render(); m != "" {
				fmt.Println("attestation-server appraisal timings (virtual time):")
				fmt.Print(m)
			}
			if m := tb.Ctrl.Metrics().Render(); m != "" {
				fmt.Println("controller fault-tolerance counters:")
				fmt.Print(m)
			}
			if fn, ok := network.(*rpc.FaultNetwork); ok {
				st := fn.Stats()
				fmt.Printf("injected faults: dials=%d drops=%d delays=%d handshake-fails=%d resets=%d\n",
					st.Dials, st.Drops, st.Delays, st.HandshakeFails, st.Resets)
			}
			return
		}
	}
}
