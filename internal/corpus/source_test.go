package corpus

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestLazySourceMatchesMathRand holds lazySource to its oracle, math/rand's
// own source, through every Rand method the generator and its callers use.
// Each seed runs well past 607 draws, so the first 273 draws come from seed
// words alone and the ring built on draw 274 wraps; the seeds cover the reductions (0, negative,
// the modulus and its neighbours, values beyond 32 bits, the int64 limits).
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, 1 << 40, math.MinInt64, math.MaxInt64}
	for _, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := newRand(seed)
		for i := 0; i < 2000; i++ {
			var g, w any
			switch i % 4 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				n := 1 + i%97
				g, w = got.Intn(n), want.Intn(n)
			case 3:
				n := i % 11
				g, w = got.Perm(n), want.Perm(n)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d, call %d: got %v, want %v", seed, i, g, w)
			}
		}
		// Re-seeding resets the lazy state exactly like math/rand's Seed.
		// Each run re-seeds, then draws. The runs re-seed a source whose
		// ring is built, then one that has made 272 draws (before draw
		// 273), then one that has made 273 (at the 273/274 boundary); the
		// last run builds the ring again and wraps it.
		for run, draws := range []int{700, 272, 273, 700} {
			got.Seed(seed + int64(run))
			want.Seed(seed + int64(run))
			for i := 0; i < draws; i++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d, re-seeded run %d, draw %d: got %d, want %d", seed, run, i, g, w)
				}
			}
		}
	}
}

// TestLazySourceDefersRing pins when the ring is built: not in the first
// 273 draws, which read only seed words, but on draw 274, the first to read
// a word an earlier draw wrote.
func TestLazySourceDefersRing(t *testing.T) {
	s := &lazySource{t: sharedTables()}
	s.Seed(42)
	for i := 0; i < ringTap; i++ {
		s.Uint64()
	}
	if s.ring != nil {
		t.Fatalf("ring built within the first %d draws", ringTap)
	}
	s.Uint64()
	if s.ring == nil {
		t.Fatalf("ring not built on draw %d", ringTap+1)
	}
	s.Seed(42)
	if s.ring != nil {
		t.Fatal("Seed kept the ring")
	}
}
