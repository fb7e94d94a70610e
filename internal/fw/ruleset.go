package fw

import (
	"fmt"
	"strings"

	"barbican/internal/packet"
)

// Verdict is the outcome of evaluating a packet against a rule-set.
type Verdict struct {
	// Action is the disposition.
	Action Action
	// Rule is the matching rule, or nil when the default action applied.
	Rule *Rule
	// Index is the 1-based position of the matching rule, or 0 for the
	// default action.
	Index int
	// Traversed is the number of rules the filter had to examine: the
	// paper's "rules traversed before action". It equals Index for a rule
	// match and the full rule count for the default action. This is the
	// quantity that drives the embedded processor's per-packet cost.
	Traversed int
}

// RuleSet is an ordered, first-match packet filter policy.
type RuleSet struct {
	rules    []Rule
	view     []Rule // copy handed out by Rules, built in NewRuleSet so concurrent readers never race
	def      Action
	stateful bool     // any rule carries state matchers; computed once in NewRuleSet
	matches  []uint64 // per-rule match counts
	defHits  uint64
	evals    uint64
	compiled *CompiledSet // Match's matcher, compiled on its first call
}

// NewRuleSet validates rules and builds a rule-set with the given default
// action for packets no rule matches.
func NewRuleSet(def Action, rules ...Rule) (*RuleSet, error) {
	if def != Allow && def != Deny {
		return nil, fmt.Errorf("fw: invalid default action %d", def)
	}
	for i := range rules {
		if err := rules[i].Validate(); err != nil {
			return nil, fmt.Errorf("fw: rule %d: %w", i+1, err)
		}
	}
	rs := &RuleSet{
		rules:   append([]Rule(nil), rules...),
		view:    append([]Rule(nil), rules...),
		def:     def,
		matches: make([]uint64, len(rules)),
	}
	for i := range rs.rules {
		if rs.rules[i].IsStateful() {
			rs.stateful = true
			break
		}
	}
	return rs, nil
}

// MustRuleSet is NewRuleSet that panics on error, for tests and static
// configuration.
func MustRuleSet(def Action, rules ...Rule) *RuleSet {
	rs, err := NewRuleSet(def, rules...)
	if err != nil {
		panic(err)
	}
	return rs
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.rules) }

// Default returns the default action.
func (rs *RuleSet) Default() Action { return rs.def }

// Rule returns the 1-based i'th rule.
func (rs *RuleSet) Rule(i int) *Rule { return &rs.rules[i-1] }

// Rules returns the rules in order. The returned slice is a copy built
// once at construction — a rule-set's rules are immutable afterwards, so
// repeated calls (markdown/analysis render loops, metric-gather
// closures) share one copy and may run concurrently. Callers must not
// modify it.
func (rs *RuleSet) Rules() []Rule { return rs.view }

// Each calls fn for each rule in order with its 1-based index, stopping
// early if fn returns false. It is the allocation-free alternative to
// Rules for iteration.
func (rs *RuleSet) Each(fn func(i int, r *Rule) bool) {
	for i := range rs.rules {
		if !fn(i+1, &rs.rules[i]) {
			return
		}
	}
}

// Stateful reports whether any rule carries state matchers: the signal
// that evaluation needs a conntrack classification to be meaningful.
func (rs *RuleSet) Stateful() bool { return rs.stateful }

// Eval evaluates a packet summary traveling in direction dir on the
// stateless path and returns the verdict of the first matching rule (or
// the default action). Rules with state matchers never fire here.
func (rs *RuleSet) Eval(s packet.Summary, dir Direction) Verdict {
	return rs.EvalState(s, dir, StateNone)
}

// EvalState evaluates a packet summary traveling in direction dir whose
// conntrack classification is cs, returning the verdict of the first
// matching rule (or the default action).
func (rs *RuleSet) EvalState(s packet.Summary, dir Direction, cs ConnState) Verdict {
	rs.evals++
	for i := range rs.rules {
		if rs.rules[i].MatchesState(s, dir, cs) {
			rs.matches[i]++
			return Verdict{
				Action:    rs.rules[i].Action,
				Rule:      &rs.rules[i],
				Index:     i + 1,
				Traversed: i + 1,
			}
		}
	}
	rs.defHits++
	return Verdict{Action: rs.def, Traversed: len(rs.rules)}
}

// Match is the product evaluation path: EvalState's verdict and counter
// updates, from the rule set's compiled matcher, in time independent of
// where the match lands. The matcher is compiled on the first call and
// kept (the rules never change), so every holder of the set shares it.
// EvalState stays the reference it is tested against. Like EvalState,
// Match is not safe for concurrent use.
//
//barbican:noalloc
func (rs *RuleSet) Match(s packet.Summary, dir Direction, cs ConnState) Verdict {
	if rs.compiled == nil {
		rs.compiled = Compile(rs)
	}
	return rs.compiled.EvalState(s, dir, cs)
}

// Record applies the counter updates an Eval producing verdict v would
// have applied, without re-evaluating. It lets a caller that replayed a
// remembered verdict (a flow-cache hit) keep the per-rule hit counts,
// eval totals, and default-hit totals identical to an uncached walk.
//
//barbican:noalloc
func (rs *RuleSet) Record(v Verdict) {
	rs.evals++
	if v.Index > 0 {
		rs.matches[v.Index-1]++
		return
	}
	rs.defHits++
}

// CountVPGCandidates returns how many VPG rules applicable to direction
// dir appear among the first traversed rules. It quantifies the trial
// decryptions an eager (decrypt-before-match) filter would perform on a
// sealed packet that traversed that far (ablation ABL2).
func (rs *RuleSet) CountVPGCandidates(dir Direction, traversed int) int {
	if traversed > len(rs.rules) {
		traversed = len(rs.rules)
	}
	n := 0
	for i := 0; i < traversed; i++ {
		r := &rs.rules[i]
		if r.IsVPG() && (r.Direction == Both || r.Direction == dir) {
			n++
		}
	}
	return n
}

// Stats reports evaluation counters: total evaluations, per-rule match
// counts (1-based positions in the returned slice's 0-based indexes), and
// default-action hits.
func (rs *RuleSet) Stats() (evals uint64, perRule []uint64, defaultHits uint64) {
	return rs.evals, append([]uint64(nil), rs.matches...), rs.defHits
}

// MatchCount returns the 1-based i'th rule's hit count without
// copying, for metric collector closures on the hot-path-free gather
// side.
func (rs *RuleSet) MatchCount(i int) uint64 { return rs.matches[i-1] }

// EvalCount returns the total number of Eval calls.
func (rs *RuleSet) EvalCount() uint64 { return rs.evals }

// DefaultHits returns how many evaluations fell through to the
// default action (a full-depth walk).
func (rs *RuleSet) DefaultHits() uint64 { return rs.defHits }

// String renders the rule-set in the policy DSL syntax.
func (rs *RuleSet) String() string {
	var b strings.Builder
	for i := range rs.rules {
		b.WriteString(rs.rules[i].String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "default %v\n", rs.def)
	return b.String()
}
