package corpus

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// TestLazySourceMatchesMathRand holds lazySource to its oracle, math/rand's
// own source, through every Rand method the generator and its callers use.
// Each seed runs well past 607 draws so the ring wraps and every lazily
// seeded word is read again; the seeds cover the reductions (0, negative,
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
		got.Seed(seed + 3)
		want.Seed(seed + 3)
		for i := 0; i < 700; i++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d re-seeded, draw %d: got %d, want %d", seed, i, g, w)
			}
		}
	}
}
