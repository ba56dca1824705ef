// Package pipe is the plumbing corner of the frozen fixture tree:
// interface dispatch, methods, function literals and calls across
// packages. See frozen/kernel for why nothing here may change.
package pipe

import "frozen/kernel"

// Stage is one step of a pipeline.
type Stage interface {
	Apply(m *kernel.Matrix)
}

// Square multiplies a matrix by itself.
type Square struct{ scratch kernel.Matrix }

// Apply implements Stage.
func (s *Square) Apply(m *kernel.Matrix) {
	s.scratch = kernel.Matrix{N: m.N, A: make([]float64, len(m.A))}
	kernel.Mul(&s.scratch, m, m)
	copy(m.A, s.scratch.A)
}

// Normalize scales a matrix's rows.
type Normalize struct{}

// Apply implements Stage.
func (Normalize) Apply(m *kernel.Matrix) { kernel.Norm(m) }

// Pipeline runs its stages in order, rounds times over.
type Pipeline struct {
	Stages []Stage
	Rounds int
}

// Run drives every stage through the interface.
func (p *Pipeline) Run(m *kernel.Matrix) float64 {
	for r := 0; r < p.Rounds; r++ {
		for _, s := range p.Stages {
			s.Apply(m)
		}
	}
	return kernel.Trace(m)
}

// Each calls fn on every cell: the literal a caller passes is weighted by
// the loops here.
func Each(m *kernel.Matrix, fn func(i, j int, v float64)) {
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			fn(i, j, m.At(i, j))
		}
	}
}

// Checksum folds every cell through a literal.
func Checksum(m *kernel.Matrix) float64 {
	var sum float64
	Each(m, func(i, j int, v float64) {
		sum += weigh(i, j) * v
	})
	return sum
}

func weigh(i, j int) float64 { return float64(1 + (i+j)%3) }
