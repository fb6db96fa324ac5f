// Package protoverif is a bounded symbolic protocol verifier in the
// Dolev-Yao model, standing in for the ProVerif verification of the
// CloudMonatt attestation protocol (paper §7.2.2). It models the protocol's
// message trace in a small term algebra, computes the attacker's knowledge
// closure (analysis), decides term derivability (synthesis), and checks the
// six secrecy / integrity / authentication properties the paper verifies.
//
// The verifier is deliberately falsifiable: weakened protocol variants
// (plaintext reports, reused nonces, leaked session keys, unsigned reports,
// periodic drains signed per report) must — and do — produce violations,
// demonstrating that the checks have discriminating power.
package protoverif

import (
	"sort"
	"strings"
)

// Op is a term constructor.
type Op string

// Term constructors of the algebra.
const (
	OpName Op = "name" // atomic value: keys, nonces, payloads
	OpPair Op = "pair" // tupling (right-nested for n-tuples)
	OpSEnc Op = "senc" // symmetric encryption: senc(k, m)
	OpSign Op = "sign" // signature: sign(sk, m) — reveals m, proves sk
	OpHash Op = "hash" // cryptographic hash
	OpPK   Op = "pk"   // public key of a private key
)

// Term is an immutable symbolic message.
type Term struct {
	Op   Op
	Atom string // for OpName
	Args []*Term
}

// Name makes an atomic term.
func Name(s string) *Term { return &Term{Op: OpName, Atom: s} }

// Pair tuples terms (right-nested).
func Pair(ts ...*Term) *Term {
	if len(ts) == 0 {
		return Name("nil")
	}
	if len(ts) == 1 {
		return ts[0]
	}
	return &Term{Op: OpPair, Args: []*Term{ts[0], Pair(ts[1:]...)}}
}

// SEnc symmetrically encrypts m under k.
func SEnc(k, m *Term) *Term { return &Term{Op: OpSEnc, Args: []*Term{k, m}} }

// Sign signs m with private key sk.
func Sign(sk, m *Term) *Term { return &Term{Op: OpSign, Args: []*Term{sk, m}} }

// Hash hashes m.
func Hash(m *Term) *Term { return &Term{Op: OpHash, Args: []*Term{m}} }

// PK derives the public key of sk.
func PK(sk *Term) *Term { return &Term{Op: OpPK, Args: []*Term{sk}} }

// key returns a canonical string for set membership.
func (t *Term) key() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

func (t *Term) write(b *strings.Builder) {
	b.WriteString(string(t.Op))
	if t.Op == OpName {
		b.WriteByte(':')
		b.WriteString(t.Atom)
		return
	}
	b.WriteByte('(')
	for i, a := range t.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		a.write(b)
	}
	b.WriteByte(')')
}

// String renders the term readably.
func (t *Term) String() string { return t.key() }

// Equal reports structural equality.
func (t *Term) Equal(u *Term) bool { return t.key() == u.key() }

// Knowledge is the attacker's analyzed knowledge set.
type Knowledge struct {
	terms map[string]*Term
}

// NewKnowledge builds the analysis closure of the initial set: everything
// derivable by *decomposition* —
//
//	pair(a,b) ⇒ a, b
//	sign(sk,m) ⇒ m            (signatures are not confidential)
//	senc(k,m) ⇒ m  if k known (keys may become known later ⇒ fixpoint)
//	pk(sk) stays as-is
func NewKnowledge(initial []*Term) *Knowledge {
	k := &Knowledge{terms: make(map[string]*Term)}
	for _, t := range initial {
		k.terms[t.key()] = t
	}
	for {
		added := false
		for _, t := range snapshot(k.terms) {
			switch t.Op {
			case OpPair:
				added = k.add(t.Args[0]) || added
				added = k.add(t.Args[1]) || added
			case OpSign:
				added = k.add(t.Args[1]) || added
			case OpSEnc:
				if k.has(t.Args[0]) {
					added = k.add(t.Args[1]) || added
				}
			}
		}
		if !added {
			return k
		}
	}
}

func snapshot(m map[string]*Term) []*Term {
	keys := make([]string, 0, len(m))
	for s := range m {
		keys = append(keys, s)
	}
	sort.Strings(keys)
	out := make([]*Term, len(keys))
	for i, s := range keys {
		out[i] = m[s]
	}
	return out
}

func (k *Knowledge) add(t *Term) bool {
	s := t.key()
	if _, ok := k.terms[s]; ok {
		return false
	}
	k.terms[s] = t
	return true
}

func (k *Knowledge) has(t *Term) bool {
	_, ok := k.terms[t.key()]
	return ok
}

// CanDerive decides synthesis: whether the attacker can construct t from
// the analyzed knowledge by composition —
//
//	pair: both components derivable
//	senc: key and message derivable
//	sign: private key and message derivable
//	hash: message derivable
//	pk:   private key derivable, or the public key itself known
func (k *Knowledge) CanDerive(t *Term) bool {
	if k.has(t) {
		return true
	}
	switch t.Op {
	case OpPair, OpSEnc, OpSign:
		return k.CanDerive(t.Args[0]) && k.CanDerive(t.Args[1])
	case OpHash:
		return k.CanDerive(t.Args[0])
	case OpPK, OpEPub:
		return k.CanDerive(t.Args[0])
	case OpDH:
		return k.canDeriveDH(t)
	}
	return false
}

// Size returns the number of analyzed terms (for reporting).
func (k *Knowledge) Size() int { return len(k.terms) }
