package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift128+ variant, splitmix64-seeded). Every simulator in this
// repository takes an explicit seed so runs are reproducible bit-for-bit;
// math/rand's global state is never used.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from the given seed via splitmix64,
// so nearby seeds still yield well-separated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initialises the generator state from seed.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0 = next()
	r.s1 = next()
	if r.s0 == 0 && r.s1 == 0 {
		r.s0 = 1
	}
}

// State returns the raw xorshift128+ state words, for checkpointing.
// SetState with the same words resumes the exact stream.
func (r *RNG) State() (s0, s1 uint64) { return r.s0, r.s1 }

// SetState overwrites the generator state with previously captured words.
// An all-zero state is invalid for xorshift128+ and is nudged the same way
// Reseed does, so restore can never wedge the generator.
func (r *RNG) SetState(s0, s1 uint64) {
	if s0 == 0 && s1 == 0 {
		s0 = 1
	}
	r.s0, r.s1 = s0, s1
}

// ShardSeed derives a well-separated child seed for shard i of a
// campaign seeded with seed. The derivation is a splitmix64 finalizer
// over both words, so shard streams never overlap the campaign stream
// or each other even for adjacent shard indexes, and the mapping is a
// pure function of (seed, shard) — independent of worker count,
// scheduling, and GOMAXPROCS.
func ShardSeed(seed uint64, shard int) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(uint64(shard)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a standard normal sample (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// LogNormal returns a log-normal sample with the given underlying normal
// mu and sigma. Used for allocation-lifetime distributions, which are
// heavy-tailed in production memory traces.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Zipf draws ranks in [0, n) following a Zipf distribution with exponent s.
// It uses a precomputed cumulative table, so construction is O(n) and each
// draw is O(log n). Used for access-locality modelling (hot pages).
type Zipf struct {
	cum []float64
	rng *RNG
}

// NewZipf constructs a Zipf sampler over n ranks with exponent s > 0.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, rng: rng}
}

// Next returns the next rank in [0, n).
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// WeightedChoice picks an index in [0, len(weights)) with probability
// proportional to its weight. Zero or negative total weight panics.
func (r *RNG) WeightedChoice(weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		panic("stats: WeightedChoice with non-positive total weight")
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
