package tempest

import (
	"path/filepath"
	"strings"
	"testing"
)

// The FuncName edge cases mirror how real callers hand functions to
// InstrumentFunc: bound method values, closures over state, generic
// instantiations. Each must resolve to a stable, package-qualified
// symbol — never an empty string or a raw pointer.

type nameProbe struct{ hits int }

func (p *nameProbe) Bump()   { p.hits++ }
func (nameProbe) ValueRecv() {}

func genericProbe[T any]() {}

func namedProbeFunc() {}

func TestFuncNameMethodValues(t *testing.T) {
	p := &nameProbe{}
	if got := FuncName(p.Bump); !strings.Contains(got, "nameProbe") || !strings.Contains(got, "Bump") {
		t.Errorf("pointer method value = %q, want nameProbe/Bump", got)
	}
	if got := FuncName(nameProbe{}.ValueRecv); !strings.Contains(got, "nameProbe") || !strings.Contains(got, "ValueRecv") {
		t.Errorf("value method value = %q, want nameProbe/ValueRecv", got)
	}
	// Method values carry the -fm suffix the runtime gives bound methods;
	// the name must still be package-qualified, not a bare pointer.
	if got := FuncName(p.Bump); !strings.HasPrefix(got, "tempest.") {
		t.Errorf("method value %q not package-qualified", got)
	}
}

func TestFuncNameClosures(t *testing.T) {
	captured := 0
	closure := func() { captured++ }
	got := FuncName(closure)
	if !strings.Contains(got, "tempest.TestFuncNameClosures.func") {
		t.Errorf("capturing closure = %q", got)
	}
	// Two distinct closures in the same function get distinct symbols.
	other := func() { captured-- }
	if FuncName(other) == got {
		t.Errorf("distinct closures share symbol %q", got)
	}
	// Returned closures resolve to their defining function's symbol.
	mk := func() func() { return func() { captured++ } }
	if inner := FuncName(mk()); !strings.Contains(inner, "tempest.TestFuncNameClosures") {
		t.Errorf("nested closure = %q", inner)
	}
}

func TestFuncNameGenericInstantiation(t *testing.T) {
	gi := FuncName(genericProbe[int])
	if !strings.Contains(gi, "genericProbe") {
		t.Errorf("generic instantiation = %q", gi)
	}
	if !strings.HasPrefix(gi, "tempest.") {
		t.Errorf("generic instantiation %q not package-qualified", gi)
	}
	// Different instantiations may share a shape symbol; both must still
	// resolve to the generic function's name.
	if gs := FuncName(genericProbe[string]); !strings.Contains(gs, "genericProbe") {
		t.Errorf("string instantiation = %q", gs)
	}
}

func TestInstrumentFuncEdgeCaseNames(t *testing.T) {
	s, err := NewLiveSession(LiveConfig{
		HwmonRoot:             filepath.Join(t.TempDir(), "none"),
		AllowSimulatedSensors: true,
		SampleRateHz:          50,
		LaneBufferCap:         DefaultLaneBufferCap,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &nameProbe{}
	for _, fn := range []func(){p.Bump, genericProbe[int], namedProbeFunc, func() { p.hits += 2 }} {
		if err := s.InstrumentFunc(fn); err != nil {
			t.Fatal(err)
		}
	}
	prof, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if p.hits != 3 {
		t.Errorf("instrumented functions did not run: hits = %d", p.hits)
	}
	names := funcNames(prof)
	for _, want := range []string{"Bump", "genericProbe", "namedProbeFunc", "TestInstrumentFuncEdgeCaseNames.func"} {
		found := false
		for _, n := range names {
			if strings.Contains(n, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("profile missing %s: %v", want, names)
		}
	}
	// Every profiled name is package-qualified with the directory trimmed.
	for _, n := range names {
		if strings.Contains(n, "/") {
			t.Errorf("name %q kept its directory prefix", n)
		}
	}
}
