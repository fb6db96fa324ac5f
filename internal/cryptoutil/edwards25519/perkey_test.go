// Tests of perkey.go, which is written here rather than copied.

package edwards25519

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestRecodeMatchesUpstreamNAF checks recode against the source's own
// recoding, kept below as the oracle, on seeded scalars and on the edges a
// word-at-a-time skip could get wrong: the extremes of the scalar range and
// long runs of ones (a pending carry) and of zeros (none).
func TestRecodeMatchesUpstreamNAF(t *testing.T) {
	var edges [][32]byte
	edge := func(hexLE string) {
		var b [32]byte
		copy(b[:], decodeHex(hexLE))
		edges = append(edges, b)
	}
	edge("0000000000000000000000000000000000000000000000000000000000000000") // 0
	edge("0100000000000000000000000000000000000000000000000000000000000000") // 1
	edge("ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010") // l − 1
	edge("0000000000000000000000000000000000000000000000000000000000000010") // 2^252
	edge("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff0f") // 2^252 − 1
	for start := 0; start < 252; start += 5 {
		for _, n := range []int{1, 2, 3, 7, 8, 9, 31, 63, 64, 65, 128, 200, 252} {
			var ones, zeros [4]uint64
			for i := range zeros {
				zeros[i] = ^uint64(0)
			}
			zeros[3] >>= 4 // below 2^252
			for bit := start; bit < start+n && bit < 252; bit++ {
				ones[bit/64] |= 1 << (bit % 64)
				zeros[bit/64] &^= 1 << (bit % 64)
			}
			edges = append(edges, leBytes(ones), leBytes(zeros))
		}
	}

	rng := rand.New(rand.NewSource(1))
	var wide [64]byte
	for i := 0; i < 100_000+len(edges); i++ {
		var s Scalar
		if i < len(edges) {
			if _, err := s.SetCanonicalBytes(edges[i][:]); err != nil {
				t.Fatalf("edge %d: %v", i, err)
			}
		} else {
			rng.Read(wide[:])
			s.SetUniformBytes(wide[:])
			if i%4 == 0 {
				// Low words all ones or all zeros beneath random high ones.
				var b [32]byte
				s.bytes(&b)
				fill := byte(0)
				if i%8 == 0 {
					fill = 0xff
				}
				for k := 0; k < 8*(1+i%3); k++ {
					b[k] = fill
				}
				if _, err := s.SetCanonicalBytes(b[:]); err != nil {
					t.Fatalf("scalar %d: %v", i, err)
				}
			}
		}
		for _, w := range []uint{5, 8} {
			want := s.nonAdjacentForm(w)
			var got nafRows
			got.recode(&s, w)
			if got.digits != want {
				t.Fatalf("scalar %x, w=%d: recode\n%v\nwant\n%v", s.Bytes(), w, got.digits, want)
			}
			for row := range got.rows {
				var mask uint8
				for j := 0; j < chunks; j++ {
					if want[width*j+row] != 0 {
						mask |= 1 << j
					}
				}
				if got.rows[row] != mask {
					t.Fatalf("scalar %x, w=%d: row %d mask %08b, want %08b", s.Bytes(), w, row, got.rows[row], mask)
				}
			}
		}
	}
}

func leBytes(words [4]uint64) [32]byte {
	var b [32]byte
	for i, x := range words {
		binary.LittleEndian.PutUint64(b[8*i:], x)
	}
	return b
}

// nonAdjacentForm is the source's recoding, copied verbatim from Go 1.24.0's
// src/crypto/internal/fips140/edwards25519/scalar.go (with its byteorder
// import rewritten as encoding/binary) to be recode's oracle.
//
// nonAdjacentForm computes a width-w non-adjacent form for this scalar.
//
// w must be between 2 and 8, or nonAdjacentForm will panic.
func (s *Scalar) nonAdjacentForm(w uint) [256]int8 {
	// This implementation is adapted from the one
	// in curve25519-dalek and is documented there:
	// https://github.com/dalek-cryptography/curve25519-dalek/blob/f630041af28e9a405255f98a8a93adca18e4315b/src/scalar.rs#L800-L871
	b := s.Bytes()
	if b[31] > 127 {
		panic("scalar has high bit set illegally")
	}
	if w < 2 {
		panic("w must be at least 2 by the definition of NAF")
	} else if w > 8 {
		panic("NAF digits must fit in int8")
	}

	var naf [256]int8
	var digits [5]uint64

	for i := 0; i < 4; i++ {
		digits[i] = binary.LittleEndian.Uint64(b[i*8:])
	}

	width := uint64(1 << w)
	windowMask := uint64(width - 1)

	pos := uint(0)
	carry := uint64(0)
	for pos < 256 {
		indexU64 := pos / 64
		indexBit := pos % 64
		var bitBuf uint64
		if indexBit < 64-w {
			// This window's bits are contained in a single u64
			bitBuf = digits[indexU64] >> indexBit
		} else {
			// Combine the current 64 bits with bits from the next 64
			bitBuf = (digits[indexU64] >> indexBit) | (digits[1+indexU64] << (64 - indexBit))
		}

		// Add carry into the current window
		window := carry + (bitBuf & windowMask)

		if window&1 == 0 {
			// If the window value is even, preserve the carry and continue.
			// Why is the carry preserved?
			// If carry == 0 and window & 1 == 0,
			//    then the next carry should be 0
			// If carry == 1 and window & 1 == 0,
			//    then bit_buf & 1 == 1 so the next carry should be 1
			pos += 1
			continue
		}

		if window < width/2 {
			carry = 0
			naf[pos] = int8(window)
		} else {
			carry = 1
			naf[pos] = int8(window) - int8(width)
		}

		pos += w
	}
	return naf
}
