package controller

import (
	"crypto/rand"
	"strings"
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/latency"
	"cloudmonatt/internal/rpc"
	"cloudmonatt/internal/shard"
	"cloudmonatt/internal/sim"
	"cloudmonatt/internal/vclock"
)

// TestEmptyRingFailsAtFirstRoute: a controller built without an attestation
// plane (Config.Ring nil, or a ring nobody joined) says so at the first
// VM-addressed route instead of dereferencing nil deep in a launch.
func TestEmptyRingFailsAtFirstRoute(t *testing.T) {
	for name, ring := range map[string]*shard.Ring{"nil": nil, "empty": shard.NewRing(1, 0)} {
		c := New(Config{
			Identity: cryptoutil.MustIdentity("cloud-controller"),
			Network:  rpc.NewMemNetwork(),
			Clock:    vclock.New(sim.NewKernel(1)),
			Latency:  latency.New(1),
			Rand:     rand.Reader,
			Ring:     ring,
		})
		if _, err := c.routeForVM("vm-0001"); err == nil || !strings.Contains(err.Error(), "attestation ring is empty") {
			t.Errorf("%s ring: routeForVM error = %v, want \"attestation ring is empty\"", name, err)
		}
	}
}
