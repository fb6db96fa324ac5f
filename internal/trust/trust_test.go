package trust

import (
	"crypto/rand"
	"sync"
	"testing"
	"testing/quick"

	"cloudmonatt/internal/cryptoutil"
)

func newModule(t *testing.T) *Module {
	t.Helper()
	m, err := NewModule("server-1", 0, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "server-1" {
		t.Fatalf("Name = %q", m.Name())
	}
	if m.Registers().Len() != DefaultRegisters {
		t.Fatalf("register count %d", m.Registers().Len())
	}
	return m
}

func TestRegistersBasicOps(t *testing.T) {
	r := NewRegisters(4)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if err := r.Add(2, 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(2, 3); err != nil {
		t.Fatal(err)
	}
	v, err := r.Read(2)
	if err != nil || v != 8 {
		t.Fatalf("Read = %d,%v want 8", v, err)
	}
	if err := r.Set(0, 42); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	want := []uint64{42, 0, 8, 0}
	for i := range want {
		if snap[i] != want[i] {
			t.Fatalf("snapshot %v, want %v", snap, want)
		}
	}
	r.Clear()
	for i, v := range r.Snapshot() {
		if v != 0 {
			t.Fatalf("register %d not cleared: %d", i, v)
		}
	}
}

func TestRegistersBounds(t *testing.T) {
	r := NewRegisters(2)
	if err := r.Add(-1, 1); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := r.Set(2, 1); err == nil {
		t.Fatal("out-of-range Set accepted")
	}
	if _, err := r.Read(99); err == nil {
		t.Fatal("out-of-range Read accepted")
	}
}

func TestRegistersDefaultSize(t *testing.T) {
	if n := NewRegisters(0).Len(); n != DefaultRegisters {
		t.Fatalf("default register count %d, want %d", n, DefaultRegisters)
	}
}

func TestRegistersSnapshotIsolated(t *testing.T) {
	r := NewRegisters(2)
	r.Set(0, 7)
	snap := r.Snapshot()
	snap[0] = 99
	if v, _ := r.Read(0); v != 7 {
		t.Fatal("mutating a snapshot changed the register bank")
	}
}

func TestQuickRegisterAccumulation(t *testing.T) {
	// Property: the register equals the sum of all Adds (mod 2^64).
	f := func(deltas []uint16) bool {
		r := NewRegisters(1)
		var want uint64
		for _, d := range deltas {
			r.Add(0, uint64(d))
			want += uint64(d)
		}
		got, _ := r.Read(0)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistersConcurrentAdds(t *testing.T) {
	r := NewRegisters(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add(0, 1)
			}
		}()
	}
	wg.Wait()
	if v, _ := r.Read(0); v != 8000 {
		t.Fatalf("concurrent adds lost updates: %d", v)
	}
}

func TestSessionKeyDistinctFromIdentity(t *testing.T) {
	m := newModule(t)
	s1, req1, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if cryptoutil.KeyEqual(s1.Public(), m.IdentityKey()) {
		t.Fatal("session key equals identity key — server anonymity broken")
	}
	if cryptoutil.KeyEqual(s1.Public(), s2.Public()) {
		t.Fatal("two sessions share a key")
	}
	if req1.Server != "server-1" {
		t.Fatalf("request names %q", req1.Server)
	}
}

func TestCertRequestVerification(t *testing.T) {
	m := newModule(t)
	_, req, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCertRequest(req, m.IdentityKey()); err != nil {
		t.Fatalf("genuine request rejected: %v", err)
	}
	other := newModule(t)
	if err := VerifyCertRequest(req, other.IdentityKey()); err == nil {
		t.Fatal("request accepted under wrong identity key")
	}
	forged := *req
	forged.Server = "server-2"
	if err := VerifyCertRequest(&forged, m.IdentityKey()); err == nil {
		t.Fatal("request with altered server name accepted")
	}
	if err := VerifyCertRequest(nil, m.IdentityKey()); err == nil {
		t.Fatal("nil request accepted")
	}
}

func TestSessionSigning(t *testing.T) {
	m := newModule(t)
	s, _, _ := m.NewSession()
	msg := []byte("evidence")
	sig := s.Sign(msg)
	if !cryptoutil.Verify(s.Public(), msg, sig) {
		t.Fatal("session signature does not verify")
	}
	if cryptoutil.Verify(m.IdentityKey(), msg, sig) {
		t.Fatal("session signature verifies under identity key")
	}
}

func TestModuleNonces(t *testing.T) {
	m := newModule(t)
	a, err := m.Nonce()
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Nonce()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("two nonces identical")
	}
}
