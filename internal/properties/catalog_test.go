package properties_test

import (
	"testing"

	"cloudmonatt/internal/properties"
	"cloudmonatt/internal/trust/driver"
)

// The catalog's requests live in the driver's capability table; these hold
// the paper's own backend to it.

func TestMapToMeasurements(t *testing.T) {
	for _, p := range properties.All {
		req, err := driver.MapToMeasurements(driver.BackendTPM, p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(req.Kinds) == 0 {
			t.Fatalf("%s maps to no measurements", p)
		}
	}
	if _, err := driver.MapToMeasurements(driver.BackendTPM, "bogus"); err == nil {
		t.Fatal("bogus property mapped")
	}
}

func TestRuntimePropertiesHaveWindows(t *testing.T) {
	for _, p := range []properties.Property{properties.CovertChannelFreedom, properties.CPUAvailability} {
		req, _ := driver.MapToMeasurements(driver.BackendTPM, p)
		if req.Window <= 0 {
			t.Errorf("%s has no observation window", p)
		}
	}
}
