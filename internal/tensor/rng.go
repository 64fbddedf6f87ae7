package tensor

import (
	"math"
	"math/rand"
)

// RNG is the deterministic random source used across the system. Every
// experiment derives its streams from explicit seeds so results reproduce
// bit-for-bit; there is deliberately no time-based seeding anywhere.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a seeded generator.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child generator; the label keeps streams for
// different purposes (weights, data, noise) decoupled from call order.
func (g *RNG) Split(label int64) *RNG {
	return NewRNG(g.r.Int63() ^ (label * 0x9e3779b97f4a7c))
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// NormFloat64 returns a standard normal value.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// FillUniform fills t with uniform values in [lo,hi).
func (g *RNG) FillUniform(t *Tensor, lo, hi float32) {
	for i := range t.data {
		t.data[i] = lo + float32(float32(g.r.Float64())*(hi-lo))
	}
}

// FillNormal fills t with N(mean, std^2) values.
func (g *RNG) FillNormal(t *Tensor, mean, std float32) {
	for i := range t.data {
		t.data[i] = mean + float32(float32(g.r.NormFloat64())*std)
	}
}

// FillXavier fills a weight tensor with Xavier/Glorot-style initialization
// given fan-in and fan-out; this keeps activations well-scaled through deep
// stacks so randomly-initialized networks still produce informative logits.
func (g *RNG) FillXavier(t *Tensor, fanIn, fanOut int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn+fanOut)))
	g.FillNormal(t, 0, std)
}

// FillHe fills a weight tensor with He initialization (good for ReLU nets).
func (g *RNG) FillHe(t *Tensor, fanIn int) {
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	g.FillNormal(t, 0, std)
}
