package monitor_test

import (
	"testing"

	"cloudmonatt/internal/cryptoutil"
	"cloudmonatt/internal/interpret"
	"cloudmonatt/internal/monitor"
	"cloudmonatt/internal/properties"
)

// TestRegisterCollectorValidation holds the collector rules of Spec
// validation: a custom property brings a collector, and only for custom
// kinds no other spec collects. The Monitor Kernel collects the built-in
// kinds and a backend's evidence itself.
func TestRegisterCollectorValidation(t *testing.T) {
	collect := func(vm *monitor.VM, k properties.MeasurementKind, n [16]byte) (properties.Measurement, error) {
		return properties.Measurement{Kind: k}, nil
	}
	interp := func(ms []properties.Measurement, n cryptoutil.Nonce, refs interpret.References) properties.Verdict {
		return properties.Verdict{Healthy: true}
	}
	spec := func(p properties.Property, kinds ...properties.MeasurementKind) interpret.Spec {
		return interpret.Spec{Property: p, Request: properties.Request{Kinds: kinds}, Collect: collect, Interpret: interp}
	}
	good := spec("custom-p", "custom-k")
	for _, tc := range []struct {
		name  string
		specs []interpret.Spec
	}{
		{"nil collector", []interpret.Spec{{Property: "custom-p", Request: good.Request, Interpret: interp}}},
		{"collector for a built-in kind", []interpret.Spec{spec("custom-p", properties.KindCPUTime)}},
		{"collector for a backend's evidence kind", []interpret.Spec{spec("custom-p", properties.KindAttestationReport)}},
		{"kind collected twice", []interpret.Spec{good, spec("custom-q", "custom-k")}},
	} {
		if err := interpret.Validate(tc.specs); err == nil {
			t.Errorf("%s: specs accepted", tc.name)
		}
	}
}
