package cryptoutil

import (
	"bufio"
	"compress/gzip"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"cloudmonatt/internal/cryptoutil/edwards25519"
)

// signVectors reads testdata/sign.input.gz, the Ed25519 test vectors
// crypto/ed25519 tests itself with (a selection of
// https://ed25519.cr.yp.to/python/sign.input): seed, public key, message
// and signature per line.
func signVectors(tb testing.TB) (seeds, pubs, msgs, sigs [][]byte) {
	tb.Helper()
	f, err := os.Open("testdata/sign.input.gz")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	z, err := gzip.NewReader(f)
	if err != nil {
		tb.Fatal(err)
	}
	sc := bufio.NewScanner(z)
	for sc.Scan() {
		parts := strings.Split(sc.Text(), ":")
		if len(parts) != 5 {
			tb.Fatalf("bad vector line %q", sc.Text())
		}
		priv, _ := hex.DecodeString(parts[0])
		pub, _ := hex.DecodeString(parts[1])
		msg, _ := hex.DecodeString(parts[2])
		sig, _ := hex.DecodeString(parts[3])
		seeds, pubs = append(seeds, priv[:ed25519.SeedSize]), append(pubs, pub)
		msgs, sigs = append(msgs, msg), append(sigs, sig[:ed25519.SignatureSize])
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return seeds, pubs, msgs, sigs
}

func fromHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// smallOrder are the eight encodings of points of order 1, 2, 4 and 8.
var smallOrder = [][]byte{
	fromHex("0100000000000000000000000000000000000000000000000000000000000000"),
	fromHex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
	fromHex("0000000000000000000000000000000000000000000000000000000000000000"),
	fromHex("0000000000000000000000000000000000000000000000000000000000000080"),
	fromHex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"),
	fromHex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa"),
	fromHex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"),
	fromHex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85"),
}

// addL returns sig with L, the group order, added to S: the same scalar,
// encoded non-canonically.
func addL(sig []byte) []byte {
	l := fromHex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010")
	out := append([]byte(nil), sig...)
	var carry uint16
	for i := 0; i < 32; i++ {
		v := uint16(out[32+i]) + uint16(l[i]) + carry
		out[32+i], carry = byte(v), v>>8
	}
	return out
}

// adversarial returns triples built to probe the edges of the acceptance
// rule: small-order and non-canonical keys, identity R with S = 0 (which
// verifies under some small-order keys), non-canonical S and R, a flipped
// message.
func adversarial() (pubs, msgs, sigs [][]byte) {
	add := func(pub, msg, sig []byte) {
		pubs, msgs, sigs = append(pubs, pub), append(msgs, msg), append(sigs, sig)
	}
	identityR := make([]byte, 64)
	identityR[0] = 1
	for _, a := range smallOrder {
		for m := 0; m < 4; m++ {
			add(a, []byte{byte(m)}, identityR)
		}
	}
	nonCanonicalR := append(fromHex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), make([]byte, 32)...)
	add(smallOrder[0], []byte("R = p + 1"), nonCanonicalR)
	negZeroR := append(fromHex("0100000000000000000000000000000000000000000000000000000000000080"), make([]byte, 32)...)
	add(smallOrder[0], []byte("R = -0"), negZeroR)
	add(fromHex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), []byte("A = p + 1"), identityR) // y ≥ p
	add(fromHex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), []byte("A = p"), identityR)
	add(fromHex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"), []byte("A = 2^255 - 1"), identityR)

	id, _ := IdentityFromSeed("adversarial", make([]byte, ed25519.SeedSize))
	msg := []byte("cloudmonatt")
	sig := id.Sign(msg)
	add(id.Public(), msg, sig)
	add(id.Public(), []byte("cloudmonatT"), sig)
	add(id.Public(), msg, addL(sig))
	top := append([]byte(nil), sig...)
	top[63] |= 0xe0
	add(id.Public(), msg, top)
	add(make([]byte, 32), msg, sig)
	add(id.Public(), msg, sig[:63])
	return pubs, msgs, sigs
}

// agree fails t unless Verify and crypto/ed25519.Verify agree on the
// triple, on a cache miss and again on a hit.
func agree(t testing.TB, pub, msg, sig []byte) {
	want := len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
	for _, pass := range []string{"first", "second"} {
		if got := Verify(pub, msg, sig); got != want {
			t.Fatalf("%s Verify(%x, %x, %x) = %v, crypto/ed25519 says %v", pass, pub, msg, sig, got, want)
		}
	}
}

func TestVerifySignVectors(t *testing.T) {
	_, pubs, msgs, sigs := signVectors(t)
	if len(pubs) != 128 {
		t.Fatalf("%d vectors, want 128", len(pubs))
	}
	for i := range pubs {
		if !Verify(pubs[i], msgs[i], sigs[i]) {
			t.Fatalf("vector %d does not verify", i+1)
		}
		agree(t, pubs[i], msgs[i], sigs[i])
	}
}

func TestVerifyAdversarial(t *testing.T) {
	pubs, msgs, sigs := adversarial()
	accepted := 0
	for i := range pubs {
		agree(t, pubs[i], msgs[i], sigs[i])
		if Verify(pubs[i], msgs[i], sigs[i]) {
			accepted++
		}
	}
	// The identity key accepts identity R with S = 0 for every message,
	// and so do the other keys of order ≤ 2; the table must reach both
	// verdicts or it tests nothing.
	if accepted < 8 || accepted == len(pubs) {
		t.Fatalf("%d of %d adversarial triples accepted", accepted, len(pubs))
	}
}

// TestVerifyMatchesStdlibTable checks 20 480 seeded triples, valid and
// mutated, over 96 keys (more than the cache holds, so checks also run
// against evicted and rebuilt slots), against crypto/ed25519.Verify.
func TestVerifyMatchesStdlibTable(t *testing.T) {
	const keys, signed = 96, 2560
	ids := make([]*Identity, keys)
	for i := range ids {
		seed := sha256.Sum256([]byte(fmt.Sprintf("verify-table-key-%d", i)))
		ids[i], _ = IdentityFromSeed("k", seed[:])
	}
	mutations := []func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte){
		func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte) { return pub, msg, sig },
		func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte) { // message bit
			if len(msg) == 0 {
				return pub, []byte{0}, sig
			}
			m := append([]byte(nil), msg...)
			m[n%len(m)] ^= 1 << (n % 8)
			return pub, m, sig
		},
		func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte) { // R bit
			s := append([]byte(nil), sig...)
			s[n%32] ^= 1 << (n % 8)
			return pub, msg, s
		},
		func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte) { // S bit, canonical or not
			s := append([]byte(nil), sig...)
			s[32+n%32] ^= 1 << (n % 8)
			return pub, msg, s
		},
		func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte) { return pub, msg, addL(sig) },
		func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte) { // another key
			return ids[(n+1)%keys].Public(), msg, sig
		},
		func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte) { // key bit: often off the curve
			p := append([]byte(nil), pub...)
			p[n%32] ^= 1 << (n % 8)
			return p, msg, sig
		},
		func(pub, msg, sig []byte, n int) ([]byte, []byte, []byte) { // small-order key
			return smallOrder[n%len(smallOrder)], msg, sig
		},
	}
	cases, accepted := 0, 0
	for n := 0; n < signed; n++ {
		var seed [8]byte
		binary.BigEndian.PutUint64(seed[:], uint64(n))
		h := sha256.Sum256(seed[:])
		msg := h[:int(h[0])%len(h)]
		id := ids[n%keys]
		sig := id.Sign(msg)
		for _, mutate := range mutations {
			pub, m, s := mutate(id.Public(), msg, sig, n)
			want := ed25519.Verify(pub, m, s)
			if got := Verify(pub, m, s); got != want {
				t.Fatalf("case %d: Verify(%x, %x, %x) = %v, crypto/ed25519 says %v", n, pub, m, s, got, want)
			}
			cases++
			if want {
				accepted++
			}
		}
	}
	if cases < 20000 || accepted < signed {
		t.Fatalf("%d cases, %d accepted: want ≥ 20 000 and every unmutated one", cases, accepted)
	}
}

func FuzzVerifyMatchesStdlib(f *testing.F) {
	_, pubs, msgs, sigs := signVectors(f)
	apubs, amsgs, asigs := adversarial()
	pubs, msgs, sigs = append(pubs, apubs...), append(msgs, amsgs...), append(sigs, asigs...)
	for i := range pubs {
		f.Add(pubs[i], msgs[i], sigs[i])
	}
	f.Fuzz(func(t *testing.T, pub, msg, sig []byte) {
		agree(t, pub, msg, sig)
	})
}

// cacheTriples returns n valid (key, message, signature) triples under n
// distinct keys.
func cacheTriples(n int, tag string) (pubs, msgs, sigs [][]byte) {
	for i := 0; i < n; i++ {
		seed := sha256.Sum256([]byte(fmt.Sprintf("%s-%d", tag, i)))
		id, _ := IdentityFromSeed(tag, seed[:])
		msg := seed[:16]
		pubs, msgs, sigs = append(pubs, id.Public()), append(msgs, msg), append(sigs, id.Sign(msg))
	}
	return pubs, msgs, sigs
}

// TestVerifyAllocFree pins that a check allocates nothing: on a cached key,
// and on a key that misses a full cache and takes over an evicted slot.
func TestVerifyAllocFree(t *testing.T) {
	pubs, msgs, sigs := cacheTriples(2*keySlots, "alloc")
	for i := range pubs {
		Verify(pubs[i], msgs[i], sigs[i])
	}
	last := len(pubs) - 1
	if n := testing.AllocsPerRun(100, func() {
		if !Verify(pubs[last], msgs[last], sigs[last]) {
			t.Fatal("cached key rejected its signature")
		}
	}); n != 0 {
		t.Errorf("a check against a cached key allocates %v times", n)
	}
	// Cycling through twice as many keys as the cache holds misses every
	// time.
	i := 0
	if n := testing.AllocsPerRun(2*len(pubs), func() {
		verifyKeys.mu.Lock()
		_, cached := verifyKeys.index[[32]byte(pubs[i])]
		verifyKeys.mu.Unlock()
		if cached {
			t.Fatalf("key %d is cached; the check would not miss", i)
		}
		if !Verify(pubs[i], msgs[i], sigs[i]) {
			t.Fatal("evicting key rejected its signature")
		}
		i = (i + 1) % len(pubs)
	}); n != 0 {
		t.Errorf("a check that misses a full cache allocates %v times", n)
	}
}

// TestVerifyCacheEvictionUnderConcurrency runs eight goroutines over three
// times as many keys as the cache holds, so slots are evicted under checks
// in flight: every valid triple must be accepted and a signature under
// another key never.
func TestVerifyCacheEvictionUnderConcurrency(t *testing.T) {
	pubs, msgs, sigs := cacheTriples(3*keySlots, "evict")
	rounds := 24
	if testing.Short() {
		rounds = 6
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*37 + r*11) % len(pubs)
				if !Verify(pubs[i], msgs[i], sigs[i]) {
					t.Errorf("goroutine %d: key %d rejected its own signature", g, i)
					return
				}
				j := (i + 1 + g) % len(pubs)
				if Verify(pubs[j], msgs[i], sigs[i]) {
					t.Errorf("goroutine %d: key %d accepted key %d's signature", g, j, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestVerifyBuildsOncePerKey pins when Verify builds a key's tables: on
// the key's first check, never on a later one while it stays cached, and
// exactly once more after 64 other keys have evicted it.
func TestVerifyBuildsOncePerKey(t *testing.T) {
	pubs, msgs, sigs := cacheTriples(keySlots+2, "builds")
	check := func(i int, wantBuilds uint64) {
		t.Helper()
		before := VerifyTableBuilds()
		if !Verify(pubs[i], msgs[i], sigs[i]) {
			t.Fatalf("key %d rejected its signature", i)
		}
		if got := VerifyTableBuilds() - before; got != wantBuilds {
			t.Fatalf("a check under key %d built %d tables, want %d", i, got, wantBuilds)
		}
	}
	check(0, 1)
	check(0, 0)
	check(0, 0)

	// Key 1 is checked once, so its reference bit is clear, and the clock
	// hand reaches its slot within 64 misses.
	check(1, 1)
	for i := 2; i < len(pubs); i++ {
		check(i, 1)
	}
	verifyKeys.mu.Lock()
	_, cached := verifyKeys.index[[32]byte(pubs[1])]
	verifyKeys.mu.Unlock()
	if cached {
		t.Fatalf("key 1 is still cached after %d other keys", len(pubs)-2)
	}
	check(1, 1)
	check(1, 0)

	var bad [32]byte
	bad[0] = 2 // y = 2 is not on the curve
	before := VerifyTableBuilds()
	for range 2 {
		if Verify(bad[:], msgs[0], sigs[0]) {
			t.Fatal("a key that does not decode accepted a signature")
		}
	}
	if got := VerifyTableBuilds() - before; got != 2 {
		t.Fatalf("two checks under a key that does not decode built %d tables, want 2: it is not kept", got)
	}
}

func BenchmarkVerify(b *testing.B) {
	pubs, msgs, sigs := cacheTriples(2*keySlots, "bench")
	b.Run("cached", func(b *testing.B) {
		Verify(pubs[0], msgs[0], sigs[0])
		for i := 0; i < b.N; i++ {
			Verify(pubs[0], msgs[0], sigs[0])
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % len(pubs)
			Verify(pubs[j], msgs[j], sigs[j])
		}
	})
	b.Run("build", func(b *testing.B) {
		var vk edwards25519.VerifyKey
		for i := 0; i < b.N; i++ {
			if err := vk.Set(pubs[i%len(pubs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ed25519.Verify(pubs[0], msgs[0], sigs[0])
		}
	})
}

// BenchmarkVerifyWorkingSet checks signatures under working sets of keys
// on both sides of the cache's keySlots, cycling through the set with each
// key checked u times in a row, and reports per check its time and the key
// tables it built. At or below keySlots keys every warm check hits; past
// it, the builds per check show what round-robin use of more keys than
// the cache holds costs each check.
func BenchmarkVerifyWorkingSet(b *testing.B) {
	pubs, msgs, sigs := cacheTriples(1024, "working-set")
	for _, keys := range []int{32, 64, 65, 128, 1024} {
		for _, u := range []int{1, 8} {
			b.Run(fmt.Sprintf("keys=%d/u=%d", keys, u), func(b *testing.B) {
				check := func(i int) {
					j := i / u % keys
					if !Verify(pubs[j], msgs[j], sigs[j]) {
						b.Fatalf("key %d rejected its signature", j)
					}
				}
				for i := 0; i < keys*u; i++ {
					check(i) // one pass over the set, so the cache holds what it would
				}
				before := VerifyTableBuilds()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					check(i)
				}
				b.ReportMetric(float64(VerifyTableBuilds()-before)/float64(b.N), "builds/check")
			})
		}
	}
}
