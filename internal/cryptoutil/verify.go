package cryptoutil

import (
	"crypto/ed25519"
	"sync"

	"cloudmonatt/internal/cryptoutil/edwards25519"
)

// Verify checks sig over msg under pub. It accepts exactly what
// crypto/ed25519.Verify accepts (and a pub of the wrong length never), but
// checks against the key's precomputed tables, which it keeps in a cache
// of keySlots keys: every key the program checks against is long-lived or,
// like an AVK, used several times.
func Verify(pub ed25519.PublicKey, msg, sig []byte) bool {
	opVerify.Add(1)
	if len(pub) != ed25519.PublicKeySize {
		return false
	}
	return verifyKeys.verify([32]byte(pub), msg, sig)
}

// keySlots is how many public keys' tables Verify keeps: every identity,
// shard and server key of a testbed, and each server's current AVK.
const keySlots = 64

// A keySlot holds one key's tables, 10 KiB. Its lock is read-held for each
// check against the key, in place: copying the tables out would put 10 KiB
// on every verifying goroutine's stack.
type keySlot struct {
	mu    sync.RWMutex
	pub   [32]byte               // the key last built into the slot
	valid bool                   // vk is pub's tables; false if pub does not decode
	vk    edwards25519.VerifyKey // guarded by mu, as are pub and valid
}

// keyCache finds a key's slot through index. On a miss the clock hand
// evicts the first slot not hit since the hand last passed it, and the
// slot is rebuilt in place, so a new key allocates nothing.
type keyCache struct {
	mu    sync.Mutex
	index map[[32]byte]int // key → slot; guarded by mu
	hit   [keySlots]bool   // guarded by mu
	hand  int              // guarded by mu
	slots [keySlots]keySlot
}

var verifyKeys = keyCache{index: make(map[[32]byte]int, keySlots)}

func (c *keyCache) verify(pub [32]byte, msg, sig []byte) bool {
	for {
		c.mu.Lock()
		i, ok := c.index[pub]
		if !ok {
			return c.fill(pub, msg, sig)
		}
		c.hit[i] = true
		c.mu.Unlock()
		s := &c.slots[i]
		s.mu.RLock()
		if s.pub == pub {
			ok := s.valid && s.vk.Verify(msg, sig)
			s.mu.RUnlock()
			return ok
		}
		// Evicted since the lookup, which dropped it from the index.
		s.mu.RUnlock()
	}
}

// fill builds pub into the slot at the clock hand and checks sig there. It
// is called with c.mu held and releases it. The slot's write lock, taken
// before pub is indexed, waits out checks against the evicted key and holds
// off checks against pub until the tables are built.
func (c *keyCache) fill(pub [32]byte, msg, sig []byte) bool {
	for c.hit[c.hand] {
		c.hit[c.hand] = false
		c.hand = (c.hand + 1) % keySlots
	}
	i := c.hand
	c.hand = (i + 1) % keySlots
	s := &c.slots[i]
	s.mu.Lock()
	if j, ok := c.index[s.pub]; ok && j == i {
		delete(c.index, s.pub)
	}
	c.index[pub] = i
	c.mu.Unlock()

	tableBuilds.Add(1)
	valid := s.vk.Set(pub[:]) == nil
	s.pub, s.valid = pub, valid
	ok := valid && s.vk.Verify(msg, sig)
	s.mu.Unlock()
	if !valid {
		// A key that does not decode is not kept: checks that found it
		// meanwhile read valid == false and fail, later ones miss again.
		c.mu.Lock()
		if j, ok := c.index[pub]; ok && j == i {
			delete(c.index, pub)
		}
		c.mu.Unlock()
	}
	return ok
}
