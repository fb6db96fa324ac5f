// Package edwards25519 is the group arithmetic of crypto/ed25519, copied
// from Go 1.24.0's src/crypto/internal/fips140/edwards25519 (and its field
// subpackage, with fe_amd64.s) so that cryptoutil can keep verification
// tables per public key (perkey.go) and sign from a key expanded once
// (sign.go). Those two files are written here; every other file is copied.
//
// The copy differs from its source only in that its imports of
// fips140deps/byteorder and fips140/subtle became encoding/binary and
// crypto/subtle, the fips140/check import was dropped, the field's generic
// carryPropagate shim (fe_carry.go, from fe_arm64_noasm.go) applies on
// every architecture, and declarations nothing here uses were deleted
// whole, ScalarMult and VarTimeDoubleScalarBaseMult among them. Nothing
// inside a kept function was edited.
// Scalar.nonAdjacentForm (and so scalar.go's encoding/binary import) and
// the SelectInto of nafLookupTable5 and nafLookupTable8 went when perkey.go
// took over recoding and reading entries in place.
//
// Signing and key minting use these declarations, each copied whole into
// the file named after its source:
//   - scalarmult.go: ScalarBaseMult, basepointTable and
//     basepointTablePrecomp (the constant-time fixed-base table);
//   - tables.go: affineLookupTable with its FromP3 and SelectInto;
//   - edwards25519.go: identity, NewIdentityPoint, and affineCached's
//     Zero, Select and CondNeg;
//   - scalar.go: Scalar's SetBytesWithClamping, signedRadix16,
//     MultiplyAdd and Set;
//   - field/fe.go: Element's Swap and Mult32, and mul51;
//   - x25519.go: x25519ScalarMult, the Montgomery ladder, from
//     src/crypto/ecdh/x25519.go.
//
// The test files are copied from the source's tests of the kept
// declarations, with the same import rewrites: TestBaseMultVsDalek,
// TestBasepointTableGeneration, TestAffineLookupTable, TestNafLookupTable5
// and 8, TestScalarSetBytesWithClamping and TestScalarNonAdjacentForm, and
// field's TestSelectSwap and TestMult32, each with its helpers. Point.Bytes and Point.Equal, which only those
// tests use here, are copied into edwards25519_test.go. field's TestMult32
// draws its elements from the Generate written in field/fe_test.go.
// Three are edited: TestScalarNonAdjacentForm checks its digits against
// recode, and the NafLookupTable tests read points[x/2] in place. The
// written perkey_test.go keeps Scalar.nonAdjacentForm as recode's oracle.
package edwards25519
