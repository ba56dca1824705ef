package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= eps
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{
		"Min": s.Min, "Avg": s.Avg, "Max": s.Max, "Med": s.Med, "Mod": s.Mod,
	} {
		if got != 42 {
			t.Errorf("%s = %v, want 42", name, got)
		}
	}
	if s.Sdv != 0 || s.Var != 0 {
		t.Errorf("Sdv,Var = %v,%v, want 0,0", s.Sdv, s.Var)
	}
	if s.N != 1 {
		t.Errorf("N = %d, want 1", s.N)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// Paper-style quantised sensor readings.
	in := []float64{94, 95, 95, 95, 96, 97, 94, 95}
	s, err := Summarize(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 94 || s.Max != 97 {
		t.Errorf("Min,Max = %v,%v, want 94,97", s.Min, s.Max)
	}
	wantAvg := (94 + 95 + 95 + 95 + 96 + 97 + 94 + 95) / 8.0
	if !almostEqual(s.Avg, wantAvg, 1e-12) {
		t.Errorf("Avg = %v, want %v", s.Avg, wantAvg)
	}
	if s.Mod != 95 {
		t.Errorf("Mod = %v, want 95", s.Mod)
	}
	if s.Med != 95 {
		t.Errorf("Med = %v, want 95", s.Med)
	}
	if !almostEqual(s.Var, s.Sdv*s.Sdv, 1e-9) {
		t.Errorf("Var = %v, want Sdv² = %v", s.Var, s.Sdv*s.Sdv)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	if _, err := Summarize(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestModeTieBreaksLow(t *testing.T) {
	s, err := Summarize([]float64{2, 2, 1, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Mod; m != 1 {
		t.Errorf("Mode = %v, want 1 (smallest among most frequent)", m)
	}
}

func TestMedianEvenPicksLowerMiddle(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Med; m != 2 {
		t.Errorf("Median = %v, want 2 (lower middle)", m)
	}
}

func TestAccumulatorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]float64, 1000)
	for i := range in {
		in[i] = 90 + rng.Float64()*30
	}
	acc := NewAccumulator(true)
	addAll(acc, in)
	got, err := acc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Summarize(in)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max {
		t.Errorf("N/Min/Max mismatch: got %+v want %+v", got, want)
	}
	if !almostEqual(got.Avg, want.Avg, 1e-9) {
		t.Errorf("Avg = %v, want %v", got.Avg, want.Avg)
	}
	if !almostEqual(got.Var, want.Var, 1e-6) {
		t.Errorf("Var = %v, want %v", got.Var, want.Var)
	}
	if got.Med != want.Med || got.Mod != want.Mod {
		t.Errorf("Med/Mod mismatch: got %v/%v want %v/%v", got.Med, got.Mod, want.Med, want.Mod)
	}
}

func TestAccumulatorNoRetain(t *testing.T) {
	acc := NewAccumulator(false)
	addAll(acc, []float64{1, 2, 3})
	s, err := acc.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.Med) || !math.IsNaN(s.Mod) {
		t.Errorf("Med/Mod = %v/%v, want NaN/NaN without retention", s.Med, s.Mod)
	}
	if acc.samples != nil {
		t.Error("Samples() should be nil without retention")
	}
	if s.Avg != 2 {
		t.Errorf("Avg = %v, want 2", s.Avg)
	}
}

func TestAccumulatorEmptySummary(t *testing.T) {
	if _, err := NewAccumulator(true).Summary(); err != ErrEmpty {
		t.Fatalf("empty Summary err = %v, want ErrEmpty", err)
	}
}

// Property: for any non-empty input, Min ≤ Med ≤ Max, Min ≤ Avg ≤ Max,
// Var = Sdv², and Mod is an element of the input.
func TestSummaryInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		in := make([]float64, 0, len(raw)+1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes sane to avoid float overflow in sumSq.
			in = append(in, math.Mod(v, 1e6))
		}
		if len(in) == 0 {
			in = append(in, 1)
		}
		s, err := Summarize(in)
		if err != nil {
			return false
		}
		if s.Min > s.Med || s.Med > s.Max {
			return false
		}
		if s.Min > s.Avg+1e-9 || s.Avg > s.Max+1e-9 {
			return false
		}
		if !almostEqual(s.Var, s.Sdv*s.Sdv, 1e-6*(1+math.Abs(s.Var))) {
			return false
		}
		found := false
		for _, v := range in {
			if v == s.Mod {
				found = true
				break
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: streaming accumulator agrees with batch summarisation on
// moments for arbitrary input.
func TestAccumulatorAgreesWithBatchProperty(t *testing.T) {
	f := func(raw []float64) bool {
		in := make([]float64, 0, len(raw)+1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			in = append(in, math.Mod(v, 1e4))
		}
		if len(in) == 0 {
			return true
		}
		acc := NewAccumulator(false)
		addAll(acc, in)
		want, err := Summarize(in)
		if err != nil {
			return false
		}
		scale := 1 + math.Abs(want.Var)
		return almostEqual(acc.mean, want.Avg, 1e-6) &&
			almostEqual(acc.Variance(), want.Var, 1e-5*scale) &&
			acc.min == want.Min && acc.max == want.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{5, 7, 9, 11} // y = 2x + 5
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 2, 1e-12) || !almostEqual(intercept, 5, 1e-12) {
		t.Errorf("fit = %v,%v, want 2,5", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("zero x-variance fit should fail")
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	acc := NewAccumulator(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc.Add(float64(i % 100))
	}
}

func BenchmarkSummarize1k(b *testing.B) {
	in := make([]float64, 1000)
	rng := rand.New(rand.NewSource(1))
	for i := range in {
		in[i] = rng.Float64() * 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Summarize(in); err != nil {
			b.Fatal(err)
		}
	}
}

func addAll(a *Accumulator, vs []float64) {
	for _, v := range vs {
		a.Add(v)
	}
}

// sameFloat treats NaN as equal to NaN — the NaN test needs to assert that
// a NaN-poisoned statistic stays NaN through both code paths.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

// NaN samples must degrade the accumulator exactly as they degrade batch
// Summarize: min/max keep the IEEE comparison semantics (a NaN first
// sample pins them to NaN, a later NaN leaves them alone), mean and
// variance go NaN either way.
func TestAccumulatorNaNMatchesBatch(t *testing.T) {
	cases := map[string][]float64{
		"nan_first":  {math.NaN(), 2, 5},
		"nan_middle": {2, math.NaN(), 5},
		"nan_only":   {math.NaN()},
	}
	for name, samples := range cases {
		acc := NewAccumulator(false)
		addAll(acc, samples)
		got, err := acc.Summary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := Summarize(samples)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.N != want.N {
			t.Errorf("%s: N = %d, want %d", name, got.N, want.N)
		}
		if !sameFloat(got.Min, want.Min) || !sameFloat(got.Max, want.Max) {
			t.Errorf("%s: Min/Max = %v/%v, batch %v/%v", name, got.Min, got.Max, want.Min, want.Max)
		}
		if !sameFloat(got.Avg, want.Avg) || !sameFloat(got.Var, want.Var) {
			t.Errorf("%s: Avg/Var = %v/%v, batch %v/%v", name, got.Avg, got.Var, want.Avg, want.Var)
		}
	}
}
