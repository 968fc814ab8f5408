// Package corpus implements the persistent, content-addressed test corpus:
// an on-disk cache of exploration results (per-handler path summaries and
// minimized solver model assignments), generated test programs, the
// descriptor-parse summaries, and optionally executed-test outcomes. A warm
// campaign run resolves every instruction against the corpus and skips
// symbolic exploration and test generation entirely, going straight to
// execution and difference analysis — the corpus-driven shape Icicle and
// DiffSpec use for emulator testing, applied to the paper's re-runnable,
// highly parallel pipeline.
//
// Layout (all content under a single root directory):
//
//	<root>/VERSION                    corpus format version (one line)
//	<root>/objects/<hh>/<hash>.json   one entry per cache key
//
// Every entry is keyed by a SHA-256 over a canonical rendering of its full
// key — handler, path cap, step cap, seed, semantics configuration, and the
// symex/testgen version numbers — so any input or toolchain change misses
// cleanly instead of returning stale artifacts. Writes are atomic
// (temp file + rename), so concurrent campaign workers and interrupted runs
// never leave a torn entry behind.
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pokeemu/internal/faults"
	"pokeemu/internal/symex"
)

// FormatVersion is the on-disk layout version of the corpus itself.
const FormatVersion = 1

// Transient-I/O retry policy: every object read and write is attempted up
// to ioAttempts times with doubling backoff from ioBackoff, so a fleeting
// EIO (or an injected one — the corpus.read/write/rename fault points)
// costs a retry, not a lost artifact. A read that still fails degrades to
// a cache miss (the caller recomputes); a write that still fails returns
// an error the campaign routes into its degraded ledger instead of
// dropping silently.
const (
	ioAttempts = 3
	ioBackoff  = time.Millisecond
)

// Corpus is handle to one on-disk corpus root.
type Corpus struct {
	dir string

	hits   atomic.Int64
	misses atomic.Int64
	writes atomic.Int64

	readRetries   atomic.Int64
	writeRetries  atomic.Int64
	readFailures  atomic.Int64
	writeFailures atomic.Int64

	mu sync.Mutex // serializes directory creation
}

// Stats counts corpus traffic since Open. ReadRetries/WriteRetries count
// extra I/O attempts after a transient failure; ReadFailures/WriteFailures
// count operations that exhausted every attempt (a failed read degrades to
// a miss, a failed write surfaces as an error from Put*).
type Stats struct {
	Hits, Misses, Writes int64

	ReadRetries   int64
	WriteRetries  int64
	ReadFailures  int64
	WriteFailures int64
}

// ErrVersionMismatch marks a corpus root written by an incompatible format
// version. Unlike I/O failures (which callers may degrade past by running
// uncached), a mismatch means the on-disk data is not safe to reuse or
// overwrite, so callers must refuse it.
var ErrVersionMismatch = errors.New("corpus format version mismatch")

// Open opens (creating if necessary) the corpus rooted at dir. An existing
// root with a different format version is rejected.
func Open(dir string) (*Corpus, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	verFile := filepath.Join(dir, "VERSION")
	if b, err := os.ReadFile(verFile); err == nil {
		got := strings.TrimSpace(string(b))
		if got != strconv.Itoa(FormatVersion) {
			return nil, fmt.Errorf("corpus: %s has format version %s, want %d: %w",
				dir, got, FormatVersion, ErrVersionMismatch)
		}
	} else {
		if err := writeAtomic(verFile, []byte(strconv.Itoa(FormatVersion)+"\n"), "VERSION"); err != nil {
			return nil, err
		}
	}
	return &Corpus{dir: dir}, nil
}

// Dir returns the corpus root directory.
func (c *Corpus) Dir() string { return c.dir }

// Stats returns traffic counters.
func (c *Corpus) Stats() Stats {
	return Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(), Writes: c.writes.Load(),
		ReadRetries: c.readRetries.Load(), WriteRetries: c.writeRetries.Load(),
		ReadFailures: c.readFailures.Load(), WriteFailures: c.writeFailures.Load(),
	}
}

// objectPath maps a key hash to its file.
func (c *Corpus) objectPath(hash string) string {
	return filepath.Join(c.dir, "objects", hash[:2], hash+".json")
}

// get loads the object with the given key hash into v. A missing or
// unreadable (torn, corrupt, persistently erroring) object is a miss,
// never an error: the caller recomputes and overwrites. Transient read
// errors are retried with backoff before degrading to a miss.
func (c *Corpus) get(hash string, v any) bool {
	b, err := c.readObject(hash)
	if err != nil {
		c.misses.Add(1)
		return false
	}
	if err := json.Unmarshal(b, v); err != nil {
		c.misses.Add(1)
		return false
	}
	c.hits.Add(1)
	return true
}

// readObject reads one object file with bounded retry. A missing file is
// returned immediately (the common miss); any other error — including an
// injected corpus.read fault — is retried with doubling backoff and
// counted as a ReadFailure once every attempt is exhausted.
func (c *Corpus) readObject(hash string) ([]byte, error) {
	path := c.objectPath(hash)
	var lastErr error
	for attempt := 0; attempt < ioAttempts; attempt++ {
		if attempt > 0 {
			c.readRetries.Add(1)
			time.Sleep(ioBackoff << (attempt - 1))
		}
		if err := faults.Hit(faults.CorpusRead, hash); err != nil {
			lastErr = err
			continue
		}
		b, err := os.ReadFile(path)
		if err == nil {
			return b, nil
		}
		if errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		lastErr = err
	}
	c.readFailures.Add(1)
	return nil, lastErr
}

// put stores v under the given key hash atomically, retrying transient
// write and rename failures with backoff. A put that exhausts its attempts
// returns an error; callers must surface it (the campaign counts it in the
// report's degraded section) rather than drop it.
func (c *Corpus) put(hash string, v any) error {
	path := c.objectPath(hash)
	c.mu.Lock()
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("corpus: encoding %s: %w", hash, err)
	}
	var lastErr error
	for attempt := 0; attempt < ioAttempts; attempt++ {
		if attempt > 0 {
			c.writeRetries.Add(1)
			time.Sleep(ioBackoff << (attempt - 1))
		}
		if lastErr = writeAtomic(path, b, hash); lastErr == nil {
			c.writes.Add(1)
			return nil
		}
	}
	c.writeFailures.Add(1)
	return fmt.Errorf("corpus: writing %s after %d attempts: %w", hash, ioAttempts, lastErr)
}

// writeAtomic writes data to path via a uniquely-named temp file and rename,
// so readers never observe a partial object and concurrent writers of the
// same key race benignly (last rename wins; contents are identical anyway,
// being derived from the key). faultKey names the write at the
// corpus.write (before the temp write) and corpus.rename (between write
// and commit) fault points, the two places a torn or lost object can
// originate.
func writeAtomic(path string, data []byte, faultKey string) error {
	if err := faults.Hit(faults.CorpusWrite, faultKey); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: writing %s: %v/%v", path, werr, cerr)
	}
	if err := faults.Hit(faults.CorpusRename, faultKey); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("corpus: %w", err)
	}
	return nil
}

// hashKey renders the canonical key string and hashes it.
func hashKey(parts ...string) string {
	h := sha256.Sum256([]byte(strings.Join(parts, "\x00")))
	return hex.EncodeToString(h[:])
}

// ---------------------------------------------------------------------------
// Per-instruction exploration + generation entries.

// InstrKey identifies one instruction's exploration/generation artifact.
// Every field participates in the content hash.
type InstrKey struct {
	Handler  string `json:"handler"` // unique-instruction key (core.UniqueInstr.Key)
	PathCap  int    `json:"path_cap"`
	MaxSteps int    `json:"max_steps"` // per-path IR step cap (0 = engine default)
	Seed     int64  `json:"seed"`
	Config   string `json:"config"` // semantics configuration label (e.g. "bochs")

	SymexVersion int `json:"symex_version"`
	GenVersion   int `json:"gen_version"`
}

// Hash returns the content address of the key.
func (k InstrKey) Hash() string {
	return hashKey("instr",
		k.Handler,
		strconv.Itoa(k.PathCap),
		strconv.Itoa(k.MaxSteps),
		strconv.FormatInt(k.Seed, 10),
		k.Config,
		strconv.Itoa(k.SymexVersion),
		strconv.Itoa(k.GenVersion),
	)
}

// Outcome is the serializable form of a path's termination.
type Outcome struct {
	Kind    uint8  `json:"kind"`
	Vector  uint8  `json:"vector,omitempty"`
	ErrCode uint32 `json:"err_code,omitempty"`
	HasErr  bool   `json:"has_err,omitempty"`
	Soft    bool   `json:"soft,omitempty"`
}

// CachedTest is one generated, initializer-verified test program plus the
// minimized solver model that produced it (as differences from the
// baseline state).
type CachedTest struct {
	ID        string            `json:"id"`
	PathIndex int               `json:"path_index"`
	Outcome   Outcome           `json:"outcome"`
	Diffs     map[string]uint64 `json:"diffs,omitempty"`
	Prog      []byte            `json:"prog"`
	// TestOffset locates the test instruction within Prog (everything before
	// it is the state initializer); the triage minimizer's split point.
	TestOffset int `json:"test_offset"`
}

// InstrEntry is the cached result of exploring and generating one
// instruction: the per-handler path summary (counts mirroring
// campaign.InstrReport) and every runnable test program.
type InstrEntry struct {
	Key         InstrKey     `json:"key"`
	HandlerName string       `json:"handler_name"` // semantics handler (no /16 suffix)
	Mnemonic    string       `json:"mnemonic"`
	Paths       int          `json:"paths"`
	Exhausted   bool         `json:"exhausted"`
	Queries     int64        `json:"queries"`
	Generated   int          `json:"generated"`
	GenFailed   int          `json:"gen_failed"`
	InitFault   int          `json:"init_fault"`
	Tests       []CachedTest `json:"tests"`
}

// GetInstr looks up the entry for k. The stored key must match k exactly
// (hash collisions and hand-edited objects miss).
func (c *Corpus) GetInstr(k InstrKey) (*InstrEntry, bool) {
	var e InstrEntry
	if !c.get(k.Hash(), &e) {
		return nil, false
	}
	if e.Key != k {
		return nil, false
	}
	return &e, true
}

// PutInstr stores the entry under its key.
func (c *Corpus) PutInstr(e *InstrEntry) error {
	return c.put(e.Key.Hash(), e)
}

// ---------------------------------------------------------------------------
// Descriptor-parse summary entries (the Section 3.3.2 summaries, shared by
// every instruction of a campaign).

// SummaryKey identifies the cached descriptor-parse summaries.
type SummaryKey struct {
	Config       string `json:"config"`
	SymexVersion int    `json:"symex_version"`
}

// Hash returns the content address of the key.
func (k SummaryKey) Hash() string {
	return hashKey("summary", k.Config, strconv.Itoa(k.SymexVersion))
}

// SummaryEntry holds the serialized data- and stack-segment parse summaries.
type SummaryEntry struct {
	Key   SummaryKey           `json:"key"`
	Paths int                  `json:"paths"`
	Data  *symex.SummaryRecord `json:"data"`
	SS    *symex.SummaryRecord `json:"ss"`
}

// GetSummary looks up the descriptor-parse summary entry.
func (c *Corpus) GetSummary(k SummaryKey) (*SummaryEntry, bool) {
	var e SummaryEntry
	if !c.get(k.Hash(), &e) {
		return nil, false
	}
	if e.Key != k {
		return nil, false
	}
	return &e, true
}

// PutSummary stores the descriptor-parse summary entry.
func (c *Corpus) PutSummary(e *SummaryEntry) error {
	return c.put(e.Key.Hash(), e)
}

// ---------------------------------------------------------------------------
// Executed-test outcome entries (used by campaign -resume to pick an
// interrupted run back up without re-executing finished tests).

// ExecKey identifies one test program's execution outcome across the
// implementation trio.
type ExecKey struct {
	ProgSHA  string `json:"prog_sha"` // sha256 of boot code + test program
	MaxSteps int    `json:"max_steps"`
	SnapVer  int    `json:"snap_ver"` // machine snapshot format version
}

// ExecProgSHA hashes the executable content of a test (the baseline
// initializer and the test program bytes).
func ExecProgSHA(bootCode, program []byte) string {
	h := sha256.New()
	h.Write(bootCode)
	h.Write([]byte{0xff}) // separator; 0xff never starts an x86 instruction here
	h.Write(program)
	return hex.EncodeToString(h.Sum(nil))
}

// Hash returns the content address of the key.
func (k ExecKey) Hash() string {
	return hashKey("exec", k.ProgSHA, strconv.Itoa(k.MaxSteps), strconv.Itoa(k.SnapVer))
}

// ExecOutcome is one implementation's result: the snapshot serialized in the
// machine snapfile format relative to the shared baseline image.
type ExecOutcome struct {
	Impl          string `json:"impl"`
	Steps         int    `json:"steps"`
	BaselineFault bool   `json:"baseline_fault,omitempty"`
	Snap          []byte `json:"snap"`
}

// ExecEntry is the cached trio outcome for one test program.
type ExecEntry struct {
	Key   ExecKey       `json:"key"`
	Impls []ExecOutcome `json:"impls"`
}

// GetExec looks up a cached execution outcome.
func (c *Corpus) GetExec(k ExecKey) (*ExecEntry, bool) {
	var e ExecEntry
	if !c.get(k.Hash(), &e) {
		return nil, false
	}
	if e.Key != k {
		return nil, false
	}
	return &e, true
}

// PutExec stores an execution outcome.
func (c *Corpus) PutExec(e *ExecEntry) error {
	return c.put(e.Key.Hash(), e)
}

// ---------------------------------------------------------------------------
// Equivalence-checking verdict entries (the symbolic disequivalence
// checker's per-handler results, cached so a warm equivcheck run answers
// without issuing a single solver query).

// EquivKey identifies one handler's cached disequivalence verdict. Every
// input that can change the verdict participates: the handler, the fidelis
// semantics configuration, the path cap and solver budget, and the checker
// and test-generator version numbers.
type EquivKey struct {
	Handler      string `json:"handler"` // unique-instruction key (core.UniqueInstr.Key)
	Config       string `json:"config"`  // fidelis semantics configuration label
	PathCap      int    `json:"path_cap"`
	Budget       int64  `json:"budget"`
	MaxConflicts int64  `json:"max_conflicts"` // per-query SAT conflict budget
	SemVersion   int    `json:"sem_version"`   // equivcheck semantics version
	GenVersion   int    `json:"gen_version"`   // testgen version (counterexample programs)
}

// Hash returns the content address of the key.
func (k EquivKey) Hash() string {
	return hashKey("equiv",
		k.Handler,
		k.Config,
		strconv.Itoa(k.PathCap),
		strconv.FormatInt(k.Budget, 10),
		strconv.FormatInt(k.MaxConflicts, 10),
		strconv.Itoa(k.SemVersion),
		strconv.Itoa(k.GenVersion),
	)
}

// EquivEntry is one cached verdict. Verdict is the equivcheck package's
// serialized HandlerVerdict, stored opaquely so the corpus stays decoupled
// from the checker types (the same pattern as TriageEntry.Min).
type EquivEntry struct {
	Key     EquivKey        `json:"key"`
	Verdict json.RawMessage `json:"verdict"`
}

// GetEquiv looks up a cached verdict.
func (c *Corpus) GetEquiv(k EquivKey) (*EquivEntry, bool) {
	var e EquivEntry
	if !c.get(k.Hash(), &e) {
		return nil, false
	}
	if e.Key != k {
		return nil, false
	}
	return &e, true
}

// PutEquiv stores a verdict.
func (c *Corpus) PutEquiv(e *EquivEntry) error {
	return c.put(e.Key.Hash(), e)
}

// ---------------------------------------------------------------------------
// Minimized-case entries (the triage engine's ddmin results, cached so
// re-triaging a campaign — or another job sharing the corpus — replays the
// minimization instead of re-running its oracles).

// TriageKey identifies one minimized divergent case. Every input that can
// change the minimizer's output participates: the original program content,
// the implementation pair and handler (they define the oracle and its
// undefined-behavior filter), both budgets, and the minimizer version.
type TriageKey struct {
	ProgSHA       string `json:"prog_sha"` // sha256 of boot code + original program
	Handler       string `json:"handler"`
	ImplA         string `json:"impl_a"`
	ImplB         string `json:"impl_b"`
	MaxSteps      int    `json:"max_steps"`
	Budget        int    `json:"budget"`
	TriageVersion int    `json:"triage_version"`
}

// Hash returns the content address of the key.
func (k TriageKey) Hash() string {
	return hashKey("triage",
		k.ProgSHA, k.Handler, k.ImplA, k.ImplB,
		strconv.Itoa(k.MaxSteps), strconv.Itoa(k.Budget), strconv.Itoa(k.TriageVersion))
}

// TriageEntry is one cached minimization result. Min is the triage
// package's serialized Minimized record, stored opaquely so the corpus
// stays decoupled from the triage types.
type TriageEntry struct {
	Key TriageKey       `json:"key"`
	Min json.RawMessage `json:"min"`
}

// ---------------------------------------------------------------------------
// Hybrid fuzzing-stage entries (the coverage-guided mutational fuzzer's
// whole deterministic result for one seed set and budget, cached so a warm
// hybrid campaign replays the stage byte-identically without re-executing a
// single mutated input).

// FuzzInputKey identifies one hybrid fuzzing stage. Every input that can
// change the stage's deterministic result participates: the seed test set
// (content hash), the fuzzer budget and RNG seed, the execution and reseed
// caps, the semantics configuration, and the coverage-map and fuzzer
// version numbers. The worker count deliberately does not participate — the
// result is worker-count-independent by contract.
type FuzzInputKey struct {
	SeedsSHA    string `json:"seeds_sha"` // sha256 over every seed program
	Budget      int    `json:"budget"`
	Seed        int64  `json:"seed"`
	MaxSteps    int    `json:"max_steps"`
	RoundSize   int    `json:"round_size"`
	ReseedPaths int    `json:"reseed_paths"`
	MaxReseeds  int    `json:"max_reseeds"`
	Config      string `json:"config"` // semantics configuration label

	CovVersion    int `json:"cov_version"`    // coverage.Version
	HybridVersion int `json:"hybrid_version"` // hybrid.Version
	GenVersion    int `json:"gen_version"`    // testgen version (reseed programs)
}

// Hash returns the content address of the key.
func (k FuzzInputKey) Hash() string {
	return hashKey("fuzz",
		k.SeedsSHA,
		strconv.Itoa(k.Budget),
		strconv.FormatInt(k.Seed, 10),
		strconv.Itoa(k.MaxSteps),
		strconv.Itoa(k.RoundSize),
		strconv.Itoa(k.ReseedPaths),
		strconv.Itoa(k.MaxReseeds),
		k.Config,
		strconv.Itoa(k.CovVersion),
		strconv.Itoa(k.HybridVersion),
		strconv.Itoa(k.GenVersion),
	)
}

// FuzzEntry is one cached hybrid stage result. Result is the hybrid
// package's serialized Result, stored opaquely so the corpus stays
// decoupled from the fuzzer types (the TriageEntry.Min pattern).
type FuzzEntry struct {
	Key    FuzzInputKey    `json:"key"`
	Result json.RawMessage `json:"result"`
}

// GetFuzz looks up a cached hybrid stage result.
func (c *Corpus) GetFuzz(k FuzzInputKey) (*FuzzEntry, bool) {
	var e FuzzEntry
	if !c.get(k.Hash(), &e) {
		return nil, false
	}
	if e.Key != k {
		return nil, false
	}
	return &e, true
}

// PutFuzz stores a hybrid stage result.
func (c *Corpus) PutFuzz(e *FuzzEntry) error {
	return c.put(e.Key.Hash(), e)
}

// GetTriage looks up a cached minimization.
func (c *Corpus) GetTriage(k TriageKey) (*TriageEntry, bool) {
	var e TriageEntry
	if !c.get(k.Hash(), &e) {
		return nil, false
	}
	if e.Key != k {
		return nil, false
	}
	return &e, true
}

// PutTriage stores a minimization result.
func (c *Corpus) PutTriage(e *TriageEntry) error {
	return c.put(e.Key.Hash(), e)
}
