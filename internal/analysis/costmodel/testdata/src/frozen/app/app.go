// Package app is the entry corner of the frozen fixture tree: a driver, a
// goroutine, a deferred call and a cold error path. See frozen/kernel for
// why nothing here may change.
package app

import (
	"frozen/kernel"
	"frozen/pipe"
)

// Config sizes one run.
type Config struct {
	N, Rounds, Depth int
}

// Run builds a matrix, pipes it and checks the result.
func Run(cfg Config) (float64, bool) {
	m := fill(cfg.N)
	defer release(m)
	done := make(chan int)
	go func() { done <- kernel.Fib(cfg.Depth) }()
	p := &pipe.Pipeline{Stages: []pipe.Stage{&pipe.Square{}, pipe.Normalize{}}, Rounds: cfg.Rounds}
	t := p.Run(m)
	if t != t {
		return report(m), false
	}
	return t + pipe.Checksum(m), kernel.Even(<-done)
}

func fill(n int) *kernel.Matrix {
	m := &kernel.Matrix{N: n, A: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, seed(i, j))
		}
	}
	return m
}

func seed(i, j int) float64 { return float64(i*31+j*17) / 97 }

func release(m *kernel.Matrix) { m.A = nil }

// report is the cold path: it runs when the trace is NaN.
func report(m *kernel.Matrix) float64 {
	bad := 0.0
	pipe.Each(m, func(_, _ int, v float64) {
		if v != v {
			bad++
		}
	})
	return bad
}
