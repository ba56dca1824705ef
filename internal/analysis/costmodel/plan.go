package costmodel

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The planner's per-call hook prices in nanoseconds: one instrumented
// activation in detail mode (entry/exit event pair) and in coarse mode
// (bucket add). A skipped function costs nothing. These are the
// tight-loop BenchmarkTraceDetail / BenchmarkTraceCoarse figures once
// recorded as the per-mode baseline, kept fixed so plans do not move; the
// _bench grid's instrument.detail_ns and instrument.coarse_ns cells are
// the current measurements.
const (
	detailNS = 223.3
	coarseNS = 159.2
)

// workUnitNS converts the model's abstract work units into nanoseconds
// for the overhead denominator: a unit is roughly one simple statement.
const workUnitNS = 4

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

// BuildPlan derives an instrumentation plan from the model for an
// overhead budget given as a fraction (e.g. 0.05 for 5%; 0 plans
// everything in detail). Functions start in detail mode; while the
// predicted overhead exceeds the budget, the function with the worst
// hook-cost-to-hotness ratio is demoted detail→coarse→skip (greedy,
// deterministic).
func (m *Model) BuildPlan(budget float64) *Plan {
	ranked := m.Ranked()
	var workNS float64
	entries := make([]PlanEntry, 0, len(ranked))
	for _, fc := range ranked {
		workNS += fc.Freq * fc.Self * workUnitNS
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
			HookNS: fc.Freq * detailNS,
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
	p := &Plan{Budget: budget, BaselineOverhead: overhead(), WorkNS: workNS}

	modeNS := func(mode string, freq float64) float64 {
		switch mode {
		case "coarse":
			return freq * coarseNS
		case "skip":
			return 0
		}
		return freq * detailNS
	}
	demoted := func(mode string) (string, bool) {
		switch mode {
		case "detail":
			return "coarse", true
		case "coarse":
			return "skip", true
		}
		return "", false
	}
	for budget > 0 && overhead() > budget {
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
