// Extension: integrate a deployment-defined fifth security property into
// CloudMonatt — the paper's headline architectural claim ("the CloudMonatt
// architecture is flexible and allows the integration of an arbitrary
// number of security properties and monitoring mechanisms", §4).
//
// The new property, guest-kernel-integrity, checks via VM introspection
// that the guest's measured boot chain still matches known-good digests.
// It is one value — the measurements it needs, the Monitor Module collector
// and the Property Interpretation Module interpreter — passed in the
// testbed's options, and it flows through the entire architecture: launch
// provisioning, the signed protocol, responses, everything. The example
// exits non-zero if the clean guest is not healthy, the tampered one passes,
// or the response does not terminate the VM.
package main

import (
	"fmt"
	"log"
	"time"

	"cloudmonatt"
	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/guest"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/properties"
)

const (
	propKernel properties.Property        = "guest-kernel-integrity"
	kindChain  properties.MeasurementKind = "guest-bootchain"
)

// kernelIntegrity is the custom property.
func kernelIntegrity() interpret.Spec {
	golden := make(map[string][32]byte)
	for _, c := range guest.NewOS().BootChain() {
		golden[c.Name] = c.Digest()
	}
	return interpret.Spec{
		Property: propKernel,
		// Attestation Server: property → measurements.
		Request: properties.Request{Kinds: []properties.MeasurementKind{kindChain}},
		// Monitor Module: how to collect the new measurement (VMI).
		Collect: func(vm *monitor.VM, kind properties.MeasurementKind, nonce [16]byte) (properties.Measurement, error) {
			m := properties.Measurement{Kind: kind}
			for _, c := range vm.Guest.BootChain() {
				m.LogNames = append(m.LogNames, c.Name)
				m.LogSums = append(m.LogSums, c.Digest())
			}
			return m, nil
		},
		// Property Interpretation Module: measurements → verdict.
		Interpret: func(ms []properties.Measurement, nonce cryptoutil.Nonce, refs interpret.References) properties.Verdict {
			m, ok := properties.Find(ms, kindChain)
			if !ok {
				return properties.Verdict{Property: propKernel, Healthy: false, Reason: "missing boot chain measurement"}
			}
			for i, name := range m.LogNames {
				if want, ok := golden[name]; !ok || m.LogSums[i] != want {
					return properties.Verdict{Property: propKernel, Healthy: false,
						Reason: "guest boot component modified", Details: map[string]string{"component": name}}
				}
			}
			return properties.Verdict{Property: propKernel, Healthy: true,
				Reason: "guest boot chain matches known-good digests"}
		},
	}
}

func main() {
	tb, err := cloudmonatt.NewTestbed(cloudmonatt.Options{Seed: 21, Properties: []interpret.Spec{kernelIntegrity()}})
	if err != nil {
		log.Fatal(err)
	}
	eve, err := tb.NewCustomer("eve")
	if err != nil {
		log.Fatal(err)
	}
	vm, err := eve.Launch(cloudmonatt.LaunchRequest{
		ImageName: "fedora", Flavor: "small", Workload: "web",
		Props: append(append([]cloudmonatt.Property{}, cloudmonatt.AllProperties...), propKernel),
		Pin:   -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !vm.OK {
		log.Fatalf("launch rejected: %s", vm.Reason)
	}
	tb.RunFor(time.Second)

	v, err := eve.Attest(vm.Vid, propKernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clean guest:    %s\n", v)
	if !v.Healthy {
		log.Fatal("the clean guest is not healthy")
	}

	g, err := tb.GuestOf(vm.Vid)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.TamperBootChain("guest-kernel"); err != nil {
		log.Fatal(err)
	}
	v, err = eve.Attest(vm.Vid, propKernel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tampered guest: %s (component: %s)\n", v, v.Details["component"])
	if v.Healthy {
		log.Fatal("the tampered guest passed")
	}
	st, _ := tb.Ctrl.VMState(vm.Vid)
	fmt.Printf("response:       VM is now %q — the custom property drives the response machinery too\n", st)
	if st != "terminated" {
		log.Fatalf("the VM is %q, not terminated", st)
	}
}
