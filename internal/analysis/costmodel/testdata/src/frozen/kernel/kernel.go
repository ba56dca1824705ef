// Package kernel is the numeric corner of the frozen fixture tree that
// costmodel's static top-20 golden ranks: nested loops, a leaf called
// from the innermost one, direct and mutual recursion. The tree is
// frozen — the golden moves only when the analysis does — so do not
// tidy, extend or "fix" anything under frozen/.
package kernel

// Matrix is a square matrix in row-major order.
type Matrix struct {
	N int
	A []float64
}

// At reads one cell.
func (m *Matrix) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set writes one cell.
func (m *Matrix) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

func mac(acc, a, b float64) float64 { return acc + a*b }

// Mul is the triple loop: mac runs N³ times a call.
func Mul(dst, a, b *Matrix) {
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			var acc float64
			for k := 0; k < a.N; k++ {
				acc = mac(acc, a.At(i, k), b.At(k, j))
			}
			dst.Set(i, j, acc)
		}
	}
}

// Trace sums the diagonal: one loop.
func Trace(m *Matrix) float64 {
	var t float64
	for i := 0; i < m.N; i++ {
		t += m.At(i, i)
	}
	return t
}

// Fib recurses on itself.
func Fib(n int) int {
	if n < 2 {
		return n
	}
	return Fib(n-1) + Fib(n-2)
}

// Even and Odd recurse on each other.
func Even(n int) bool {
	if n == 0 {
		return true
	}
	return Odd(n - 1)
}

// Odd is Even's other half.
func Odd(n int) bool {
	if n == 0 {
		return false
	}
	return Even(n - 1)
}

// Norm scales every row by its largest cell: a loop over two loops.
func Norm(m *Matrix) {
	for i := 0; i < m.N; i++ {
		peak := 0.0
		for j := 0; j < m.N; j++ {
			peak = maxAbs(peak, m.At(i, j))
		}
		for j := 0; j < m.N; j++ {
			m.Set(i, j, m.At(i, j)/peak)
		}
	}
}

func maxAbs(a, b float64) float64 {
	if b < 0 {
		b = -b
	}
	if b > a {
		return b
	}
	return a
}
