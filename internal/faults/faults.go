// Package faults is the process-wide, seed-deterministic fault-injection
// registry behind the chaos test layer. The pipeline's trusted-harness
// argument (the paper's §6–7: a divergence report is evidence only if the
// harness survives its own failures) is only as good as the failure paths
// we can actually drive, so every subsystem with an interesting failure
// mode exposes a *named fault point* — a single call to Hit at the place
// where the real error would surface. With no plan armed, a fault point is
// one atomic pointer load; with a plan armed, the matching rules decide —
// deterministically — whether to inject an error, a panic, or latency.
//
// Determinism contract: rules selected by probability are keyed, not
// clocked. A `p=0.5` rule hashes (seed, point, key) — the key being the
// unit's stable identity (an instruction key, a test ID, a corpus object
// hash, a solver assumption-set key) — so whether a given unit faults is a
// pure function of the plan, independent of scheduling, worker count, and
// wall-clock time. That is what lets the chaos suite assert byte-identical
// degraded reports for Workers=1 vs N. Counter triggers (n=, every=) are
// clocked by a per-rule atomic call counter and are deterministic only
// where the point is hit from one goroutine at a time; they exist to test
// retry recovery (fire the first K attempts, then heal), which keyed
// probability cannot express (same key → same decision, every retry).
//
// Plans are armed process-wide (Arm/Disarm); the binaries arm from the
// POKEEMU_FAULTS environment variable or a -faults flag at startup. Spec
// grammar (Parse):
//
//	spec   := element (';' element)*
//	element:= 'seed=' uint | rule
//	rule   := point (':' option)*
//	option := 'p=' float01        keyed probability trigger
//	        | 'n=' int            fire on exactly the Nth call
//	        | 'every=' int        fire on every Nth call
//	        | 'key=' substring    fire only when the key contains substring
//	        | 'times=' int        stop after this many fires
//	        | 'err' ['=' msg]     action: return an injected error
//	        | 'panic' ['=' msg]   action: panic with an injected *Error
//	        | 'delay=' duration   action: sleep, then proceed normally
//
// Example: POKEEMU_FAULTS="seed=7;corpus.read:p=0.5:err;solver.query:n=40:err=decision timeout"
//
// A rule with no trigger always fires; a rule with no action injects an
// error. Triggers compose conjunctively. Option values cannot contain ':'
// or ';' (the separators). Unknown points and malformed options are
// rejected with errors, never panics (FuzzFaultSpec pins this).
package faults

import (
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Registered fault-point names. Hit panics on an unregistered name in
// tests (via Parse rejecting it); the inventory doubles as documentation.
const (
	CorpusRead      = "corpus.read"      // corpus object read; key = object hash
	CorpusWrite     = "corpus.write"     // corpus temp-file write; key = object hash
	CorpusRename    = "corpus.rename"    // corpus atomic-rename commit; key = object hash
	SolverQuery     = "solver.query"     // solver CheckLits query; key = assumption-set memo key; a fire is a decision-procedure timeout
	SymexTask       = "symex.task"       // parallel exploration task; key = direction prefix
	CampaignExplore = "campaign.explore" // per-instruction explore/generate task; key = instruction key
	CampaignExec    = "campaign.exec"    // per-test execution task; key = test ID
	ServiceSchedule = "service.schedule" // job scheduler slot; key = job ID
	HybridMutate    = "hybrid.mutate"    // hybrid fuzzer mutation job; key = job ID
)

// Points is the fault-point inventory: every name Hit is called with, and
// what its key is. Parse rejects names outside this set.
var Points = map[string]string{
	CorpusRead:      "corpus object read (key: object hash); a fire is a transient read error",
	CorpusWrite:     "corpus temp-file write (key: object hash); a fire is a transient write error",
	CorpusRename:    "corpus atomic-rename commit (key: object hash); a fire is a transient rename error",
	SolverQuery:     "solver CheckLits query (key: assumption-set memo key); a fire is a decision-procedure timeout",
	SymexTask:       "parallel exploration task (key: branch-direction prefix); a fire crashes the task",
	CampaignExplore: "per-instruction explore/generate worker (key: instruction key); a fire crashes the worker",
	CampaignExec:    "per-test execution worker (key: test ID); a fire crashes the worker",
	ServiceSchedule: "service job slot (key: job ID); a fire fails the job at scheduling time",
	HybridMutate:    "hybrid fuzzer mutation job (key: job ID); a fire skips the mutation",
}

// EnvVar is the environment variable both binaries consult at startup for
// a fault plan spec.
const EnvVar = "POKEEMU_FAULTS"

// Error is an injected failure. Subsystems that distinguish injected from
// organic errors (tests, mostly) use IsInjected; everything else treats it
// like the real error it stands in for.
type Error struct {
	Point string // the fault point that fired
	Msg   string // the rule's message ("I/O error", "decision timeout", …)
}

func (e *Error) Error() string { return "injected: " + e.Point + ": " + e.Msg }

// IsInjected reports whether err is (or wraps) an injected fault.
func IsInjected(err error) bool {
	var e *Error
	return errors.As(err, &e)
}

type action uint8

const (
	actErr action = iota
	actPanic
	actDelay
)

// rule is one parsed spec element: triggers (all must pass) and an action.
type rule struct {
	point  string
	keySub string  // key= trigger ("" = any key)
	prob   float64 // p= trigger (-1 = unset)
	nth    int64   // n= trigger (0 = unset)
	every  int64   // every= trigger (0 = unset)
	times  int64   // times= cap (0 = unlimited)
	act    action
	msg    string
	delay  time.Duration

	calls atomic.Int64 // hits consulted (trigger clock for n=/every=)
	fires atomic.Int64 // times the rule actually fired
}

// Plan is a parsed, armable fault plan. A Plan is safe for concurrent use;
// its counters advance atomically.
type Plan struct {
	// Seed perturbs every keyed-probability decision; two plans with the
	// same rules and different seeds fail different unit sets.
	Seed uint64

	spec    string
	rules   []*rule
	byPoint map[string][]*rule
}

// Spec returns the spec string the plan was parsed from.
func (p *Plan) Spec() string { return p.spec }

// Fires returns the per-point count of injected faults so far, for test
// assertions and operator visibility.
func (p *Plan) Fires() map[string]int64 {
	out := make(map[string]int64)
	for _, r := range p.rules {
		out[r.point] += r.fires.Load()
	}
	return out
}

// armed is the process-wide active plan; nil means fault injection is off
// and every Hit is a single atomic load.
var armed atomic.Pointer[Plan]

// Arm activates the plan process-wide (nil disarms).
func Arm(p *Plan) {
	if p == nil {
		armed.Store(nil)
		return
	}
	armed.Store(p)
}

// Disarm deactivates fault injection.
func Disarm() { armed.Store(nil) }

// Armed returns the active plan (nil when disarmed).
func Armed() *Plan { return armed.Load() }

// ArmSpec parses and arms a spec in one step.
func ArmSpec(spec string) (*Plan, error) {
	p, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	Arm(p)
	return p, nil
}

// Hit consults the armed plan for the named point. It returns a non-nil
// *Error when an err-mode rule fires, panics with a *Error when a
// panic-mode rule fires, sleeps and returns nil for delay-mode, and
// returns nil otherwise. The disabled path is one atomic load.
func Hit(point, key string) error {
	p := armed.Load()
	if p == nil {
		return nil
	}
	return p.hit(point, key)
}

func (p *Plan) hit(point, key string) error {
	for _, r := range p.byPoint[point] {
		if !r.fire(p.Seed, key) {
			continue
		}
		switch r.act {
		case actDelay:
			time.Sleep(r.delay)
			return nil
		case actPanic:
			panic(&Error{Point: point, Msg: r.msg})
		default:
			return &Error{Point: point, Msg: r.msg}
		}
	}
	return nil
}

// fire evaluates the rule's triggers for one hit. Every trigger must pass.
func (r *rule) fire(seed uint64, key string) bool {
	n := r.calls.Add(1)
	if r.keySub != "" && !strings.Contains(key, r.keySub) {
		return false
	}
	if r.nth > 0 && n != r.nth {
		return false
	}
	if r.every > 0 && n%r.every != 0 {
		return false
	}
	if r.prob >= 0 {
		// Keyed decision: a pure function of (seed, point, key). Points hit
		// without a key fall back to the call counter, trading determinism
		// under concurrency for usability.
		k := key
		if k == "" {
			k = strconv.FormatInt(n, 10)
		}
		if !keyedBelow(seed, r.point, k, r.prob) {
			return false
		}
	}
	f := r.fires.Add(1)
	if r.times > 0 && f > r.times {
		return false
	}
	return true
}

// keyedBelow maps (seed, point, key) to [0,1) by FNV-1a and compares
// against p. p=1 always fires (the hash is strictly below 1); p=0 never.
func keyedBelow(seed uint64, point, key string, p float64) bool {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < 8; i++ {
		mix(byte(seed >> (8 * i)))
	}
	for i := 0; i < len(point); i++ {
		mix(point[i])
	}
	mix(0)
	for i := 0; i < len(key); i++ {
		mix(key[i])
	}
	// FNV avalanches poorly on short suffix differences (single-character
	// keys land in one narrow band); a murmur3-style finalizer fixes the
	// bit diffusion before the threshold compare.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11)/(1<<53) < p
}
