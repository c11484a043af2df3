package main

import (
	"math"
	"sort"
)

// rng is a splitmix64 stream: eight bytes of state, so every simulated
// user can own one and draw the same sequence whatever order the
// simulator runs users in.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) rng {
	r := rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential draw with the given mean.
func (r *rng) exp(mean float64) float64 { return -math.Log(1-r.float()) * mean }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// zipf samples ranks in [0, n) with P(rank k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) rank(u float64) int {
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}
