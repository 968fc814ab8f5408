package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                      // no rules
		";;",                    // no rules
		"nonsense.point",        // unknown point
		"corpus.read:p=1.5",     // p out of range
		"corpus.read:p=nan",     // NaN
		"corpus.read:p=",        // empty p
		"corpus.read:n=0",       // n < 1
		"corpus.read:every=-2",  // every < 1
		"corpus.read:times=0",   // times < 1
		"corpus.read:key=",      // empty key
		"corpus.read:bogus=1",   // unknown option
		"corpus.read:err:panic", // two actions
		"corpus.read:delay=xyz", // bad duration
		"corpus.read:delay=-1s", // negative duration
		"seed=abc",              // bad seed
		"seed=1",                // seed alone: no rules
	}
	for _, spec := range bad {
		if p, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) = %+v, want error", spec, p)
		}
	}
}

func TestParseAndFireModes(t *testing.T) {
	// n= fires exactly once, on the Nth call.
	p, err := Parse("corpus.read:n=3:err=boom")
	if err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 5; i++ {
		if p.hit(CorpusRead, "k") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Errorf("n=3 fired on calls %v, want [3]", fired)
	}
	if got := p.Fires()[CorpusRead]; got != 1 {
		t.Errorf("Fires = %d, want 1", got)
	}

	// every= fires periodically; times= caps total fires.
	p, err = Parse("corpus.write:every=2:times=2")
	if err != nil {
		t.Fatal(err)
	}
	fired = nil
	for i := 1; i <= 8; i++ {
		if p.hit(CorpusWrite, "k") != nil {
			fired = append(fired, i)
		}
	}
	if want := []int{2, 4}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Errorf("every=2:times=2 fired on %v, want %v", fired, want)
	}

	// key= gates on substring.
	p, err = Parse("campaign.explore:key=leave:panic=crash")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.hit(CampaignExplore, "push_r/16"); err != nil {
		t.Errorf("non-matching key fired: %v", err)
	}
	func() {
		defer func() {
			r := recover()
			e, ok := r.(*Error)
			if !ok || e.Point != CampaignExplore || e.Msg != "crash" {
				t.Errorf("panic = %v, want *Error{campaign.explore, crash}", r)
			}
		}()
		p.hit(CampaignExplore, "leave/16")
		t.Error("matching key did not panic")
	}()
}

func TestKeyedProbabilityIsDeterministic(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	decide := func(seed uint64) string {
		p, err := Parse("campaign.exec:p=0.5:err")
		if err != nil {
			t.Fatal(err)
		}
		p.Seed = seed
		var b strings.Builder
		for _, k := range keys {
			if p.hit(CampaignExec, k) != nil {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	d1, d2 := decide(7), decide(7)
	if d1 != d2 {
		t.Errorf("same seed, different decisions: %s vs %s", d1, d2)
	}
	// Not all-fire / all-pass at p=0.5 over 10 keys (sanity, and seed matters).
	if !strings.Contains(d1, "1") || !strings.Contains(d1, "0") {
		t.Errorf("p=0.5 decisions degenerate: %s", d1)
	}
	if d3 := decide(8); d3 == d1 {
		t.Logf("seeds 7 and 8 agree on all 10 keys (unlikely but legal): %s", d1)
	}
	// p=1 always fires, p=0 never.
	p, _ := Parse("campaign.exec:p=1:err")
	if p.hit(CampaignExec, "x") == nil {
		t.Error("p=1 did not fire")
	}
	p, _ = Parse("campaign.exec:p=0:err")
	if p.hit(CampaignExec, "x") != nil {
		t.Error("p=0 fired")
	}
}

func TestArmDisarmAndHit(t *testing.T) {
	t.Cleanup(Disarm)
	if err := Hit(CorpusRead, "k"); err != nil {
		t.Fatalf("disarmed Hit = %v", err)
	}
	p, err := ArmSpec("seed=3;corpus.read:err=EIO")
	if err != nil {
		t.Fatal(err)
	}
	if Armed() != p {
		t.Error("Armed() did not return the armed plan")
	}
	err = Hit(CorpusRead, "k")
	if err == nil || !IsInjected(err) {
		t.Fatalf("armed Hit = %v, want injected error", err)
	}
	if got, want := err.Error(), "injected: corpus.read: EIO"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Point != CorpusRead {
		t.Errorf("errors.As failed on %v", err)
	}
	Disarm()
	if err := Hit(CorpusRead, "k"); err != nil {
		t.Fatalf("Hit after Disarm = %v", err)
	}
}

func TestDelayMode(t *testing.T) {
	p, err := Parse("service.schedule:delay=10ms")
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := p.hit(ServiceSchedule, "job-0001"); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if d := time.Since(t0); d < 10*time.Millisecond {
		t.Errorf("delay slept %v, want >= 10ms", d)
	}
}

func TestSeedElement(t *testing.T) {
	p, err := Parse(" seed=42 ; corpus.read:p=0.5 ")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 {
		t.Errorf("Seed = %d, want 42", p.Seed)
	}
}

func TestEveryPointNameIsRegistered(t *testing.T) {
	for name := range Points {
		if _, err := Parse(name + ":err"); err != nil {
			t.Errorf("registered point %q rejected: %v", name, err)
		}
	}
}

// BenchmarkHitDisabled pins the disabled-path cost of a fault point: one
// atomic pointer load and a nil check. This is the acceptance gate for
// threading fault points through hot paths (solver queries, corpus I/O) —
// with no plan armed they must be effectively free.
func BenchmarkHitDisabled(b *testing.B) {
	Disarm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Hit(SolverQuery, "key"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHitArmedMiss measures an armed plan whose rule does not match,
// the common case in a chaos run (most units are healthy).
func BenchmarkHitArmedMiss(b *testing.B) {
	p, err := Parse("solver.query:p=0:err")
	if err != nil {
		b.Fatal(err)
	}
	Arm(p)
	defer Disarm()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Hit(SolverQuery, "key"); err != nil {
			b.Fatal(err)
		}
	}
}
