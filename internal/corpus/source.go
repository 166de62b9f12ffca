package corpus

import (
	"math/rand"
	"sync"
)

// The generator draws every shape from math/rand's default source, so each
// generated app is a function of that exact stream: math/rand stays the
// reference, and another algorithm would change every app. Seeding that
// source is what costs, not drawing from it. rand.NewSource runs the Lehmer
// generator x[n+1] = 48271·x[n] mod (2³¹−1) for 1,841 dependent steps (20
// to warm up, then three per word of its 607-word ring) and fills the whole
// 4.9 KB ring, while a spec draws at most about 45 values.
//
// lazySource yields the same stream and keeps no ring until draw 274. Word
// i of a source seeded with x[0] is
//
//	(x[21+3i]<<40) ^ (x[22+3i]<<20) ^ x[23+3i] ^ cooked[i]
//
// and x[n] = x[0]·48271ⁿ mod (2³¹−1), so a table of the multiplier's powers
// gives any word in three multiplications. Draw k (counting from 1) adds the
// feed word (334−k) mod 607 and the tap word (607−k) mod 607 and stores the
// sum at the feed. For k ≤ 273 no earlier draw wrote either word, so the
// draw is the sum of two seed words and needs no stored state; the sum it
// stores is first read back, as a tap, by draw k+273. Draw 274 builds the
// ring as those 273 draws would have left it and the source runs like
// math/rand's from then on. No corpus source draws that far: RandomSpec's
// makes at most about 45 draws, a family member's own at most 7, and
// StudySpecs' 217.
const (
	ringLen  = 607       // words in the ring (math/rand's rngLen)
	ringTap  = 273       // distance from the feed to the tap (rngTap)
	lehmerM  = 1<<31 - 1 // modulus of the seeding generator
	lehmerA  = 48271     // its multiplier
	zeroSeed = 89482311  // math/rand's stand-in for a seed ≡ 0 mod lehmerM
)

// seedTables holds what every lazySource shares: the multiplier's powers
// and math/rand's cooked ring words.
type seedTables struct {
	pow    [21 + 3*ringLen]int64 // pow[n] = lehmerAⁿ mod lehmerM
	cooked [ringLen]int64
}

var sharedTables = sync.OnceValue(newSeedTables)

func newSeedTables() *seedTables {
	t := new(seedTables)
	p := int64(1)
	for n := range t.pow {
		t.pow[n] = p
		p = p * lehmerA % lehmerM
	}
	// The cooked words are recovered from math/rand itself rather than
	// copied from it. Draw k of a fresh source is its initial feed word plus
	// its tap word, and the tap word is draw k−273 for k > 273, or for
	// k ≤ 273 the initial feed word of draw k+334. Undoing the sums from the
	// last draw back, then removing seed 1's Lehmer part, leaves cooked.
	ref := rand.NewSource(1).(rand.Source64)
	var out [ringLen + 1]int64 // out[k] is draw k
	for k := 1; k <= ringLen; k++ {
		out[k] = int64(ref.Uint64())
	}
	feed := func(k int) int { return (2*ringLen - ringTap - k) % ringLen }
	var ring [ringLen]int64
	for k := ringLen; k >= 1; k-- {
		if k > ringTap {
			ring[feed(k)] = out[k] - out[k-ringTap]
		} else {
			ring[feed(k)] = out[k] - ring[feed(k+ringLen-ringTap)]
		}
	}
	for i := range ring {
		t.cooked[i] = ring[i] ^ t.lehmer(1, i)
	}
	return t
}

// lehmer returns the seeding generator's share of ring word i for a source
// seeded with x0.
func (t *seedTables) lehmer(x0 int64, i int) int64 {
	n := 21 + 3*i
	return (x0*t.pow[n]%lehmerM)<<40 ^ (x0*t.pow[n+1]%lehmerM)<<20 ^ x0*t.pow[n+2]%lehmerM
}

// lazySource is a rand.Source64 whose stream equals that of
// rand.NewSource(seed), draw for draw.
type lazySource struct {
	t         *seedTables
	x0        int64 // the reduced seed: x[0] of the seeding generator
	drawn     int   // draws so far, counted until the ring is built
	tap, feed int   // ring positions, once the ring is built
	ring      *[ringLen]int64
}

// newRand returns a generator that draws exactly what
// rand.New(rand.NewSource(seed)) draws.
func newRand(seed int64) *rand.Rand {
	s := &lazySource{t: sharedTables()}
	s.Seed(seed)
	return rand.New(s)
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (s *lazySource) Seed(seed int64) {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = seed
	s.drawn = 0
	s.ring = nil
}

// word returns ring word i as seeding leaves it.
func (s *lazySource) word(i int) int64 { return s.t.lehmer(s.x0, i) ^ s.t.cooked[i] }

// Int63 returns a non-negative 63-bit value.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns the next value of the stream.
func (s *lazySource) Uint64() uint64 {
	if s.ring == nil {
		if s.drawn < ringTap {
			s.drawn++
			return uint64(s.word(ringLen-ringTap-s.drawn) + s.word(ringLen-s.drawn))
		}
		s.buildRing()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += ringLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += ringLen
	}
	x := s.ring[s.feed] + s.ring[s.tap]
	s.ring[s.feed] = x
	return uint64(x)
}

// buildRing seeds every word and replays the sums of the first 273 draws,
// leaving the ring and its positions where math/rand's stand after them.
func (s *lazySource) buildRing() {
	s.ring = new([ringLen]int64)
	for i := range s.ring {
		s.ring[i] = s.word(i)
	}
	for k := 1; k <= ringTap; k++ {
		s.ring[ringLen-ringTap-k] += s.ring[ringLen-k]
	}
	s.tap, s.feed = ringLen-ringTap, ringLen-2*ringTap
}
