package collect

import (
	"sort"
	"time"

	"tempest/instrument"
	"tempest/internal/store"
)

// PolicyOptions tunes the collector's adaptive-sampling policy engine —
// the feedback half of the closed loop. The engine watches each node's
// coarse instrumentation buckets (and the node's sensor statistics),
// ranks candidate functions with the same degree-seconds scoring the
// hot-spot API uses, and issues control directives that put the top
// candidates in detail mode while everything else stays in the cheap
// coarse mode. The zero value selects the defaults noted per field;
// Enabled false (the default) disables the engine entirely.
type PolicyOptions struct {
	// Enabled turns the policy engine on.
	Enabled bool
	// TopK is how many functions per node the engine nominates for
	// detail instrumentation (default 5).
	TopK int
	// Interval is the minimum time between policy evaluation rounds for
	// one node (default 2s). Rounds are evaluated lazily on ingest: a
	// silent node holds its policy.
	Interval time.Duration
	// HysteresisRounds is how many consecutive rounds a detail-mode
	// function must rank outside the top K before the engine demotes it
	// back to coarse (default 2) — the anti-flapping guard for
	// functions hovering around the cut line.
	HysteresisRounds int
	// EventBudget is the per-round overhead budget, expressed as the
	// detail event volume (enter/exit pairs are the dominant
	// instrumentation cost) one node may ship per evaluation round
	// (default 100000). A node over budget has its allowed detail count
	// halved each round until the rate falls; it recovers one slot per
	// round under half budget. This is the backpressure that keeps the
	// fleet under the paper's <7 % overhead bound at any workload rate.
	EventBudget uint64
	// StaticPriors seeds every new node's score table with the static
	// cost model's predictions (function name → static score, any
	// positive scale) so predicted-hot functions start in detail mode
	// the moment the node first reports, instead of waiting out the
	// first measurement round — the cold-start fix. Priors are
	// normalized to a peak of 1.0 at seeding and then decay like any
	// other heat, so real degree-seconds take over as rounds complete.
	StaticPriors map[string]float64
}

func (p PolicyOptions) withDefaults() PolicyOptions {
	if p.TopK <= 0 {
		p.TopK = 5
	}
	if p.Interval <= 0 {
		p.Interval = 2 * time.Second
	}
	if p.HysteresisRounds <= 0 {
		p.HysteresisRounds = 2
	}
	if p.EventBudget == 0 {
		p.EventBudget = 100000
	}
	return p
}

// nodePolicy is one node's policy-engine state, owned (like the rest of
// nodeState) by exactly one shard.
type nodePolicy struct {
	// scores holds the decayed degree-seconds score per function name:
	// each round adds Δseconds-in-function × max(0, sensorAvg−sensorMin)
	// — the same units as hotspot.FunctionHeat.Score, estimated from
	// coarse buckets instead of full event streams.
	scores map[string]float64
	// acc accumulates in-function nanoseconds since the last round.
	acc map[string]int64
	// outRounds counts, per currently-detail function, consecutive
	// rounds ranked outside the top K (the hysteresis counter).
	outRounds map[string]int
	// detail is the currently nominated detail set.
	detail map[string]bool
	// allowed is the budget-adjusted detail capacity for this node.
	allowed int
	// roundEvents counts detail events shipped since the last round —
	// the overhead signal the budget throttles on.
	roundEvents uint64
	// rounds counts completed evaluation rounds.
	rounds uint64
	// seeded marks that static priors were folded into this node's
	// scores, so the cold-start seeding happens at most once.
	seeded bool
	// rev is the last issued directive revision; payload its encoding.
	// Replayed from the durable store on restart so a reborn collector
	// re-issues the exact policy its predecessor acked.
	rev      uint64
	payload  []byte
	lastEval time.Time
}

// policyState returns (creating if needed) the node's policy state.
func (ns *nodeState) policyState() *nodePolicy {
	if ns.policy == nil {
		ns.policy = &nodePolicy{
			scores:    map[string]float64{},
			acc:       map[string]int64{},
			outRounds: map[string]int{},
			detail:    map[string]bool{},
		}
	}
	return ns.policy
}

// ctlFrame is a directive ready for the wire, handed from a shard call
// to the connection handler that writes it.
type ctlFrame struct {
	rev     uint64
	payload []byte
}

// accumulateCoarse folds one coarse report into the node's pending
// round. Calls are not scored directly — time is the paper's currency —
// but a function must appear here to be ranked at all.
func (np *nodePolicy) accumulateCoarse(stats []instrument.CoarseStat) {
	for _, cs := range stats {
		if cs.Nanos > 0 {
			np.acc[cs.Name] += cs.Nanos
		} else if _, ok := np.acc[cs.Name]; !ok && cs.Calls > 0 {
			np.acc[cs.Name] += 0
		}
	}
}

// tempFactor estimates the node's thermal signal for this round: the
// hottest sensor's (mean − min) — the streaming stand-in for the
// hot-spot ranking's (AvgTemp − baseline). Sensorless rounds rank on
// time alone (factor 1), so the loop still converges in simulation.
func (sh *shard) tempFactor(ns *nodeState) float64 {
	factor := 0.0
	for _, s := range ns.builder.SensorStats() {
		if s.N == 0 {
			continue
		}
		if d := s.Avg - s.Min; d > factor {
			factor = d
		}
	}
	if factor <= 0 {
		return 1
	}
	return factor
}

// policyDecay is the per-round multiplicative score decay: old heat fades
// so the ranking tracks the workload's present, and a function must
// sustain heat to hold a detail slot.
const policyDecay = 0.5

// ranked lists the members of set — nil: every scored function — by score,
// descending; names tie-break for determinism. A member with no score
// entry (a detail set restored after a restart) ranks with score 0.
func (np *nodePolicy) ranked(set map[string]bool) []PolicyFunc {
	out := []PolicyFunc{}
	if set == nil {
		for name, sc := range np.scores {
			out = append(out, PolicyFunc{Name: name, Score: sc})
		}
	}
	for name := range set {
		out = append(out, PolicyFunc{Name: name, Score: np.scores[name]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// evalPolicy runs one policy round for a node if the engine is enabled
// and the round interval has elapsed. It returns a control frame when
// the round produced a new directive (which the caller's connection
// piggybacks on the next ack), nil otherwise.
func (sh *shard) evalPolicy(ns *nodeState) *ctlFrame {
	po := sh.c.opts.Policy
	if !po.Enabled {
		return nil
	}
	np := ns.policyState()
	now := sh.c.opts.Now()
	if np.lastEval.IsZero() {
		// First sighting starts the clock; scoring needs one full round —
		// unless static priors are configured, in which case the predicted
		// hot set goes to detail mode immediately.
		np.lastEval = now
		return sh.seedPriors(ns, np, po)
	}
	if now.Sub(np.lastEval) < po.Interval {
		return nil
	}
	np.lastEval = now
	np.rounds++
	sh.c.metrics.policyRounds.Add(1)

	// Fold the round's accumulation into decayed scores.
	factor := sh.tempFactor(ns)
	for name, sc := range np.scores {
		np.scores[name] = sc * policyDecay
	}
	for name, nanos := range np.acc {
		np.scores[name] += (float64(nanos) / 1e9) * factor
		delete(np.acc, name)
	}

	// Budget backpressure: shrink the allowed detail set while the node
	// ships more detail events per round than the budget, recover slowly.
	if np.allowed == 0 {
		np.allowed = po.TopK
	}
	switch {
	case np.roundEvents > po.EventBudget:
		if np.allowed > 1 {
			np.allowed /= 2
		}
		sh.c.metrics.policyThrottles.Add(1)
	case np.roundEvents < po.EventBudget/2 && np.allowed < po.TopK:
		np.allowed++
	}
	np.roundEvents = 0

	ranked := np.ranked(nil)
	topK := map[string]bool{}
	for _, f := range ranked[:min(len(ranked), np.allowed)] {
		if f.Score > 0 {
			topK[f.Name] = true
		}
	}

	// Promotions are immediate; demotions wait out the hysteresis.
	for name := range topK {
		if !np.detail[name] {
			np.detail[name] = true
		}
		delete(np.outRounds, name)
	}
	for name := range np.detail {
		if topK[name] {
			continue
		}
		np.outRounds[name]++
		if np.outRounds[name] >= po.HysteresisRounds {
			delete(np.detail, name)
			delete(np.outRounds, name)
		}
	}
	// Hard cap on the detail set even while hysteresis holds demotions
	// back: the lowest-scored members beyond it are demoted at once.
	if maxDetail := 2 * po.TopK; len(np.detail) > maxDetail {
		for _, f := range np.ranked(np.detail)[maxDetail:] {
			delete(np.detail, f.Name)
			delete(np.outRounds, f.Name)
		}
	}

	return sh.issueDirective(ns, np)
}

// seedPriors folds the configured static priors into a fresh node's
// score table, nominates the predicted top K for detail mode and issues
// the resulting directive — the cold-start path that replaces the empty
// first round. Returns nil when no priors are configured or the node
// was already seeded (directive replay after restart counts: a reborn
// collector must not clobber its predecessor's converged policy with
// static guesses).
func (sh *shard) seedPriors(ns *nodeState, np *nodePolicy, po PolicyOptions) *ctlFrame {
	if len(po.StaticPriors) == 0 || np.seeded || np.payload != nil {
		return nil
	}
	np.seeded = true
	peak := 0.0
	for _, p := range po.StaticPriors {
		if p > peak {
			peak = p
		}
	}
	if peak <= 0 {
		return nil
	}
	for name, p := range po.StaticPriors {
		if p > 0 {
			np.scores[name] = p / peak
		}
	}
	if np.allowed == 0 {
		np.allowed = po.TopK
	}
	ranked := np.ranked(nil)
	for _, f := range ranked[:min(len(ranked), np.allowed)] {
		np.detail[f.Name] = true
	}
	sh.c.metrics.policySeeds.Add(1)
	return sh.issueDirective(ns, np)
}

// issueDirective encodes the node's desired set and, if it differs from
// the last issued directive, bumps the revision and persists it so a
// restarted collector re-issues the same policy. Returns the frame to
// send, nil when the policy is unchanged.
func (sh *shard) issueDirective(ns *nodeState, np *nodePolicy) *ctlFrame {
	d := instrument.Directive{Default: instrument.ModeCoarse}
	names := make([]string, 0, len(np.detail))
	for name := range np.detail {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d.Funcs = append(d.Funcs, instrument.FuncMode{Name: name, Mode: instrument.ModeDetail})
	}
	payload := encodeControl(d)
	if np.payload != nil && string(np.payload) == string(payload) {
		return nil // unchanged; connections re-send the cached frame as needed
	}
	np.rev++
	np.payload = payload
	sh.c.metrics.policyDirectives.Add(1)
	// Persist the directive (FlagPolicy, Seq = revision) before any
	// connection can send it: a directive a shipper acted on must survive
	// a collector restart.
	sh.append(ns, np.rev, store.FlagPolicy, sh.c.opts.Now().UnixNano(), payload, "policy append failed")
	return &ctlFrame{rev: np.rev, payload: payload}
}

// currentDirective returns the node's cached directive frame for
// re-issue (reconnect handshakes), nil when none has been issued.
func (np *nodePolicy) currentDirective() *ctlFrame {
	if np == nil || np.payload == nil {
		return nil
	}
	return &ctlFrame{rev: np.rev, payload: np.payload}
}

// PolicyFunc is one detail-nominated function in a policy status.
type PolicyFunc struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// PolicyStatus is one node's policy-engine state, served by /api/policy.
type PolicyStatus struct {
	NodeID uint32 `json:"node"`
	// Rev is the latest issued directive revision (0 = none yet).
	Rev uint64 `json:"rev"`
	// Detail lists the currently nominated detail set with scores.
	Detail []PolicyFunc `json:"detail"`
	// Allowed is the budget-adjusted detail capacity; Rounds counts
	// completed evaluation rounds; Tracked counts scored functions.
	Allowed int    `json:"allowed"`
	Rounds  uint64 `json:"rounds"`
	Tracked int    `json:"tracked"`
	// Seeded reports whether this node's scores were cold-started from
	// static priors.
	Seeded bool `json:"seeded"`
}

// policyStatus snapshots one node's policy state for the API.
func (ns *nodeState) policyStatus() PolicyStatus {
	st := PolicyStatus{NodeID: ns.id, Detail: []PolicyFunc{}}
	np := ns.policy
	if np == nil {
		return st
	}
	st.Rev = np.rev
	st.Allowed = np.allowed
	st.Rounds = np.rounds
	st.Tracked = len(np.scores)
	st.Seeded = np.seeded
	st.Detail = np.ranked(np.detail)
	return st
}
