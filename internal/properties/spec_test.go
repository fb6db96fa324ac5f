package properties_test

import (
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
)

// A custom property is a value, interpret.Spec, that a deployment passes to
// its testbed. These hold the property rules of Spec validation; the
// collector rules are in internal/monitor, the interpreter rules in
// internal/interpret.

func customSpec(p properties.Property, kinds ...properties.MeasurementKind) interpret.Spec {
	return interpret.Spec{
		Property: p,
		Request:  properties.Request{Kinds: kinds},
		Collect: func(vm *monitor.VM, k properties.MeasurementKind, n [16]byte) (properties.Measurement, error) {
			return properties.Measurement{Kind: k}, nil
		},
		Interpret: func(ms []properties.Measurement, n cryptoutil.Nonce, refs interpret.References) properties.Verdict {
			return properties.Verdict{Property: p, Healthy: true}
		},
	}
}

func TestRegisterValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec interpret.Spec
	}{
		{"empty name", customSpec("", "custom-k")},
		{"built-in name", customSpec(properties.CPUAvailability, "custom-k")},
		{"no kinds", customSpec("custom-p")},
	} {
		if err := interpret.Validate([]interpret.Spec{tc.spec}); err == nil {
			t.Errorf("%s: spec accepted", tc.name)
		}
	}
}

// TestRegisterLifecycle: a custom property lives in the specs a testbed
// takes, not in package state. It is accepted, stays outside the built-in
// catalog, cannot be given twice, and another testbed takes the same spec.
func TestRegisterLifecycle(t *testing.T) {
	spec := customSpec("custom-p", "custom-k")
	if err := interpret.Validate([]interpret.Spec{spec}); err != nil {
		t.Fatal(err)
	}
	if properties.Valid(spec.Property) {
		t.Fatal("custom property reported built in")
	}
	if _, err := driver.MapToMeasurements(driver.BackendTPM, spec.Property); err == nil {
		t.Fatal("custom property found in the built-in capability table")
	}
	if err := interpret.Validate([]interpret.Spec{spec, customSpec("custom-p", "custom-l")}); err == nil {
		t.Fatal("duplicate property accepted")
	}
	if err := interpret.Validate([]interpret.Spec{spec, customSpec("custom-q", "custom-l", "custom-m")}); err != nil {
		t.Fatalf("the same spec beside another: %v", err)
	}
}
