package costmodel

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// HookCosts holds the measured per-call cost of one instrumented
// function activation in each mode, in nanoseconds — the numbers
// BENCH_instrument.json records for instrument.Trace.
type HookCosts struct {
	DetailNS float64 `json:"detail_ns"`
	CoarseNS float64 `json:"coarse_ns"`
	SkipNS   float64 `json:"skip_ns"`
}

// DefaultHookCosts mirrors the committed BENCH_instrument.json numbers,
// used when no benchmark file is supplied.
var DefaultHookCosts = HookCosts{DetailNS: 223.3, CoarseNS: 159.2, SkipNS: 0}

// LoadHookCosts reads hook costs from a BENCH_instrument.json-shaped
// file ({"modes": {"detail": ns, "coarse": ns, "off": ns, ...}}).
func LoadHookCosts(path string) (HookCosts, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return HookCosts{}, err
	}
	var doc struct {
		Modes map[string]float64 `json:"modes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return HookCosts{}, fmt.Errorf("costmodel: parse %s: %w", path, err)
	}
	hc := DefaultHookCosts
	if v := doc.Modes["detail"]; v > 0 {
		hc.DetailNS = v
	}
	if v := doc.Modes["coarse"]; v > 0 {
		hc.CoarseNS = v
	}
	return hc, nil
}

// PlanOptions tunes plan construction.
type PlanOptions struct {
	// Budget is the target overhead fraction (e.g. 0.05 for 5%).
	Budget float64
	// Hooks prices the instrumentation; zero value means DefaultHookCosts.
	Hooks HookCosts
	// WorkUnitNS converts the model's abstract work units into
	// nanoseconds for the overhead denominator (default 4: a unit is
	// roughly one simple statement).
	WorkUnitNS float64
	// MinMode floors demotion: "coarse" keeps every function at least
	// coarsely counted; empty allows "skip".
	MinMode string
}

// PlanEntry is one function's instrumentation decision.
type PlanEntry struct {
	Sym string `json:"sym"`
	// Mode is "detail", "coarse" or "skip".
	Mode string `json:"mode"`
	// Freq is the predicted relative call count.
	Freq float64 `json:"freq"`
	// Score is the predicted exclusive weight (hotness).
	Score float64 `json:"score"`
	// HookNS is the predicted total hook spend for this function under
	// the chosen mode.
	HookNS float64 `json:"hook_ns"`
	// Reason explains a demotion, empty for functions kept in detail.
	Reason string `json:"reason,omitempty"`
}

// Plan is a reviewable instrumentation plan: which functions keep full
// entry/exit hooks, which fall back to coarse counters, which are left
// uninstrumented, and what overhead the model predicts for the result.
type Plan struct {
	// Budget echoes the requested overhead fraction (0 = unconstrained).
	Budget float64 `json:"budget"`
	// EstimatedOverhead is hook time over hook+work time under the plan.
	EstimatedOverhead float64 `json:"estimated_overhead"`
	// BaselineOverhead is the same estimate with everything in detail.
	BaselineOverhead float64 `json:"baseline_overhead"`
	// WorkNS is the predicted useful-work denominator.
	WorkNS  float64     `json:"work_ns"`
	Entries []PlanEntry `json:"entries"`

	byMode map[string]string
}

// BuildPlan derives an instrumentation plan from the model. Functions
// start in detail mode; while the predicted overhead exceeds the
// budget, the function with the worst hook-cost-to-hotness ratio is
// demoted detail→coarse→skip (greedy, deterministic).
func (m *Model) BuildPlan(opts PlanOptions) *Plan {
	if opts.Hooks == (HookCosts{}) {
		opts.Hooks = DefaultHookCosts
	}
	if opts.WorkUnitNS <= 0 {
		opts.WorkUnitNS = 4
	}
	ranked := m.Ranked()
	var workNS float64
	entries := make([]PlanEntry, 0, len(ranked))
	for _, fc := range ranked {
		workNS += fc.Freq * fc.Self * opts.WorkUnitNS
		if fc.Node.Owner() != nil {
			// Function literals cannot carry an instrumenter prologue;
			// their work still belongs in the denominator.
			continue
		}
		entries = append(entries, PlanEntry{
			Sym:    fc.Node.Sym,
			Mode:   "detail",
			Freq:   fc.Freq,
			Score:  fc.Score,
			HookNS: fc.Freq * opts.Hooks.DetailNS,
		})
	}
	hookNS := 0.0
	for i := range entries {
		hookNS += entries[i].HookNS
	}
	overhead := func() float64 {
		if workNS+hookNS == 0 {
			return 0
		}
		return hookNS / (workNS + hookNS)
	}
	p := &Plan{Budget: opts.Budget, BaselineOverhead: overhead(), WorkNS: workNS}

	modeNS := func(mode string, freq float64) float64 {
		switch mode {
		case "coarse":
			return freq * opts.Hooks.CoarseNS
		case "skip":
			return freq * opts.Hooks.SkipNS
		}
		return freq * opts.Hooks.DetailNS
	}
	demoted := func(mode string) (string, bool) {
		switch mode {
		case "detail":
			return "coarse", true
		case "coarse":
			if opts.MinMode == "coarse" {
				return "", false
			}
			return "skip", true
		}
		return "", false
	}
	for opts.Budget > 0 && overhead() > opts.Budget {
		best, bestGain := -1, 0.0
		for i := range entries {
			next, ok := demoted(entries[i].Mode)
			if !ok {
				continue
			}
			saving := entries[i].HookNS - modeNS(next, entries[i].Freq)
			if saving <= 0 {
				continue
			}
			// Prefer losing detail on cheap-but-chatty functions: high
			// hook spend, low predicted hotness.
			gain := saving / (entries[i].Score + 1)
			if gain > bestGain || (gain == bestGain && best >= 0 && entries[i].Sym < entries[best].Sym) {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // nothing left to demote
		}
		e := &entries[best]
		next, _ := demoted(e.Mode)
		nextNS := modeNS(next, e.Freq)
		hookNS += nextNS - e.HookNS
		e.Reason = fmt.Sprintf("%s→%s: saves %.0fns of predicted hook time (score %.0f)", e.Mode, next, e.HookNS-nextNS, e.Score)
		e.Mode, e.HookNS = next, nextNS
	}
	p.EstimatedOverhead = overhead()
	// Hot functions first, so reviewers read the kept set before the tail.
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Score != entries[j].Score {
			return entries[i].Score > entries[j].Score
		}
		return entries[i].Sym < entries[j].Sym
	})
	p.Entries = entries
	return p
}

// Mode returns the planned mode for an instrumenter symbol, defaulting
// to "detail" for functions the plan does not mention.
func (p *Plan) Mode(sym string) string {
	if p.byMode == nil {
		p.byMode = make(map[string]string, len(p.Entries))
		for _, e := range p.Entries {
			p.byMode[e.Sym] = e.Mode
		}
	}
	if m, ok := p.byMode[sym]; ok {
		return m
	}
	return "detail"
}

// WriteJSON renders the plan, indented, to path.
func (p *Plan) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ParsePlan reads a plan written by WriteJSON.
func ParsePlan(raw []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("costmodel: parse plan: %w", err)
	}
	return &p, nil
}
