// Package edwards25519 is the group arithmetic of crypto/ed25519, copied
// from Go 1.24.0's src/crypto/internal/fips140/edwards25519 (and its field
// subpackage, with fe_amd64.s) so that cryptoutil can keep verification
// tables per public key (perkey.go, the one file written here).
//
// The copy differs from its source only in that its imports of
// fips140deps/byteorder and fips140/subtle became encoding/binary and
// crypto/subtle, the fips140/check import was dropped, the field's generic
// carryPropagate shim (fe_carry.go, from fe_arm64_noasm.go) applies on
// every architecture, and declarations nothing here uses were deleted
// whole, scalarmult.go among them. Nothing inside a kept function was
// edited.
package edwards25519
