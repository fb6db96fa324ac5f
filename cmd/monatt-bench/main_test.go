package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudmonatt/internal/bench"
)

func golden(t *testing.T, id string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "bench", "testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestUnknownExperimentExits2NamingTheIDs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty: %q", stdout.String())
	}
	for _, a := range bench.Artefacts {
		if !strings.Contains(stderr.String(), a.ID) {
			t.Errorf("stderr does not name %q: %s", a.ID, stderr.String())
		}
	}
}

func TestOneExperimentPrintsItsGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "comparison", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if got, want := stdout.String(), golden(t, "comparison"); got != want {
		t.Fatalf("-exp comparison -seed 1 is not comparison.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestAllPrintsEveryArtefactInTableOrder(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var want []string
	for _, a := range bench.Artefacts {
		want = append(want, golden(t, a.ID))
	}
	if got := stdout.String(); got != strings.Join(want, "\n") {
		t.Fatalf("-exp all is not the goldens in table order, one blank line apart:\n%s", got)
	}
}
