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
//
// Entries are JSON, except the two a warm rerun reads for every
// instruction and every test: an instruction's generated tests are one
// binary instr record (see EncodeInstrEntry), and an executed test's
// outcomes, three encoded machine snapshots, are one binary exec record
// (see EncodeExecEntry), both under the same object path. A record is read
// in one buffer that its programs or snapshot bytes alias. The campaign decodes
// those snapshots into pooled pages, compares them, and releases them
// inside the execute task that read the entry: a decoded snapshot dies at
// the end of its execute task.
package corpus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
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

// get loads the JSON object with the given key hash into v; see load.
func (c *Corpus) get(hash string, v any) bool {
	return c.load(hash, func(b []byte) error { return json.Unmarshal(b, v) })
}

// load reads the object with the given key hash and hands its bytes to
// decode. A missing or unreadable (torn, corrupt, persistently erroring)
// object is a miss, never an error: the caller recomputes and overwrites.
// Transient read errors are retried with backoff before degrading to a
// miss.
func (c *Corpus) load(hash string, decode func([]byte) error) bool {
	b, err := c.readObject(hash)
	if err != nil {
		c.misses.Add(1)
		return false
	}
	if err := decode(b); err != nil {
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

// put stores v as JSON under the given key hash; see store.
func (c *Corpus) put(hash string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("corpus: encoding %s: %w", hash, err)
	}
	return c.store(hash, b)
}

// store writes b under the given key hash atomically, retrying transient
// write and rename failures with backoff. A store that exhausts its attempts
// returns an error; callers must surface it (the campaign counts it in the
// report's degraded section) rather than drop it.
func (c *Corpus) store(hash string, b []byte) error {
	path := c.objectPath(hash)
	c.mu.Lock()
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	c.mu.Unlock()
	if err != nil {
		return fmt.Errorf("corpus: %w", err)
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

// Hash returns the content address of the key. The instr record version
// takes part, so an instr object an older build stored (as JSON, or in an
// earlier record version) misses and is re-explored.
func (k InstrKey) Hash() string {
	return hashKey("instr",
		k.Handler,
		strconv.Itoa(k.PathCap),
		strconv.Itoa(k.MaxSteps),
		strconv.FormatInt(k.Seed, 10),
		k.Config,
		strconv.Itoa(k.SymexVersion),
		strconv.Itoa(k.GenVersion),
		"record"+strconv.Itoa(instrRecordVersion),
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
// (hash collisions and hand-edited objects miss). Every Prog aliases the
// one buffer the object was read into.
func (c *Corpus) GetInstr(k InstrKey) (*InstrEntry, bool) {
	var e *InstrEntry
	if !c.load(k.Hash(), func(b []byte) (err error) {
		e, err = DecodeInstrEntry(b)
		return err
	}) {
		return nil, false
	}
	if e.Key != k {
		return nil, false
	}
	return e, true
}

// PutInstr stores the entry under its key.
func (c *Corpus) PutInstr(e *InstrEntry) error {
	b, err := EncodeInstrEntry(e)
	if err != nil {
		return fmt.Errorf("corpus: encoding %s: %w", e.Key.Hash(), err)
	}
	return c.store(e.Key.Hash(), b)
}

// Instr record format. An instruction's entry is stored as one binary
// record, not JSON: JSON would carry every program as base64 and every
// model as a string-keyed object, and decoding that dominated a warm
// rerun's corpus reads. Integers are little endian; str16 is a u16 length
// plus the bytes; a flag is one byte, 0 or 1.
//
//	"PKIN" magic, u16 record version (instrRecordVersion)
//	key: str16 Handler, i64 PathCap, i64 MaxSteps, i64 Seed,
//	  str16 Config, i64 SymexVersion, i64 GenVersion
//	str16 HandlerName, str16 Mnemonic
//	i64 Paths, flag Exhausted, i64 Queries, i64 Generated, i64 GenFailed,
//	i64 InitFault
//	u32 test count, then per test:
//	  str16 ID, i64 PathIndex
//	  u8 Kind, u8 Vector, u32 ErrCode, flag HasErr, flag Soft
//	  u32 diff count, then per diff in strictly increasing key order:
//	    str16 key, u64 value
//	  u32 length + Prog bytes, i64 TestOffset
//
// A record has exactly one encoding: decoding rejects trailing bytes, flag
// bytes other than 0 and 1, and diff keys out of order or repeated. An
// empty test list, diff map or program decodes as nil, as the campaign
// writes them (a JSON round trip, too, turns an empty diff map into nil).
const (
	instrMagic         = "PKIN"
	instrRecordVersion = 1

	// Fewest bytes one test and one diff take, to bound a count by the
	// bytes left before allocating for it.
	minInstrTest = 2 + 8 + 1 + 1 + 4 + 1 + 1 + 4 + 4 + 8
	minInstrDiff = 2 + 8
)

// EncodeInstrEntry renders e as an instr record. Strings longer than
// 65,535 bytes, and more tests, diffs or program bytes than a u32 holds,
// are errors.
func EncodeInstrEntry(e *InstrEntry) ([]byte, error) {
	var w recordWriter
	w.b = append(w.b, instrMagic...)
	w.u16(instrRecordVersion)
	k := &e.Key
	w.str16(k.Handler)
	w.i64(int64(k.PathCap))
	w.i64(int64(k.MaxSteps))
	w.i64(k.Seed)
	w.str16(k.Config)
	w.i64(int64(k.SymexVersion))
	w.i64(int64(k.GenVersion))
	w.str16(e.HandlerName)
	w.str16(e.Mnemonic)
	w.i64(int64(e.Paths))
	w.flag(e.Exhausted)
	w.i64(e.Queries)
	w.i64(int64(e.Generated))
	w.i64(int64(e.GenFailed))
	w.i64(int64(e.InitFault))
	w.u32(len(e.Tests))
	var keys []string
	for i := range e.Tests {
		t := &e.Tests[i]
		w.str16(t.ID)
		w.i64(int64(t.PathIndex))
		w.b = append(w.b, t.Outcome.Kind, t.Outcome.Vector)
		w.b = binary.LittleEndian.AppendUint32(w.b, t.Outcome.ErrCode)
		w.flag(t.Outcome.HasErr)
		w.flag(t.Outcome.Soft)
		keys = keys[:0]
		for key := range t.Diffs {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		w.u32(len(keys))
		for _, key := range keys {
			w.str16(key)
			w.b = binary.LittleEndian.AppendUint64(w.b, t.Diffs[key])
		}
		w.u32(len(t.Prog))
		w.b = append(w.b, t.Prog...)
		w.i64(int64(t.TestOffset))
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// errInstrRecord is the error every malformed instr record decodes to.
var errInstrRecord = errors.New("corpus: malformed instr record")

// DecodeInstrEntry parses an instr record. Every Prog aliases b (capacity
// capped at its length); arbitrary bytes never panic, they fail.
func DecodeInstrEntry(b []byte) (*InstrEntry, error) {
	r := recordReader{b: b}
	if string(r.take(len(instrMagic))) != instrMagic || r.u16() != instrRecordVersion {
		return nil, errInstrRecord
	}
	e := &InstrEntry{}
	k := &e.Key
	k.Handler = r.str16()
	k.PathCap = int(r.u64())
	k.MaxSteps = int(r.u64())
	k.Seed = int64(r.u64())
	k.Config = r.str16()
	k.SymexVersion = int(r.u64())
	k.GenVersion = int(r.u64())
	e.HandlerName = r.str16()
	e.Mnemonic = r.str16()
	e.Paths = int(r.u64())
	e.Exhausted = r.flag()
	e.Queries = int64(r.u64())
	e.Generated = int(r.u64())
	e.GenFailed = int(r.u64())
	e.InitFault = int(r.u64())
	if n := r.count(minInstrTest); n > 0 {
		e.Tests = make([]CachedTest, n)
	}
	for i := range e.Tests {
		t := &e.Tests[i]
		t.ID = r.str16()
		t.PathIndex = int(r.u64())
		t.Outcome.Kind = r.u8()
		t.Outcome.Vector = r.u8()
		t.Outcome.ErrCode = r.u32()
		t.Outcome.HasErr = r.flag()
		t.Outcome.Soft = r.flag()
		if n := r.count(minInstrDiff); n > 0 {
			t.Diffs = make(map[string]uint64, n)
			prev := ""
			for j := 0; j < n && !r.bad; j++ {
				key := r.str16()
				if j > 0 && key <= prev {
					r.bad = true
				}
				t.Diffs[key] = r.u64()
				prev = key
			}
		}
		if p := r.take(int(r.u32())); len(p) > 0 {
			t.Prog = p
		}
		t.TestOffset = int(r.u64())
	}
	if r.bad || len(r.b) != 0 {
		return nil, errInstrRecord
	}
	return e, nil
}

// recordWriter appends little-endian record fields. A field too long for
// its length prefix sets err and is dropped.
type recordWriter struct {
	b   []byte
	err error
}

func (w *recordWriter) u16(v uint16) { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *recordWriter) i64(v int64)  { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(v)) }

// u32 appends a count or length.
func (w *recordWriter) u32(n int) {
	if int64(n) > math.MaxUint32 {
		w.err = fmt.Errorf("record: %d elements overflow a u32 length", n)
		return
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, uint32(n))
}

func (w *recordWriter) str16(s string) {
	if len(s) > math.MaxUint16 {
		w.err = fmt.Errorf("record: string %.32q overflows a u16 length", s)
		return
	}
	w.u16(uint16(len(s)))
	w.b = append(w.b, s...)
}

func (w *recordWriter) flag(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
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

// Hash returns the content address of the key. The exec record version
// takes part, so an exec object an older build stored (as JSON, or in an
// earlier record version) misses and is re-executed.
func (k ExecKey) Hash() string {
	return hashKey("exec", k.ProgSHA, strconv.Itoa(k.MaxSteps), strconv.Itoa(k.SnapVer),
		"record"+strconv.Itoa(execRecordVersion))
}

// ExecOutcome is one implementation's result: the snapshot serialized in the
// machine snapfile format relative to the shared baseline image.
type ExecOutcome struct {
	Impl          string
	Steps         int
	BaselineFault bool
	Snap          []byte
}

// ExecEntry is the cached trio outcome for one test program.
type ExecEntry struct {
	Key   ExecKey
	Impls []ExecOutcome
}

// GetExec looks up a cached execution outcome. Every Snap aliases the one
// buffer the object was read into.
func (c *Corpus) GetExec(k ExecKey) (*ExecEntry, bool) {
	var e *ExecEntry
	if !c.load(k.Hash(), func(b []byte) (err error) {
		e, err = DecodeExecEntry(b)
		return err
	}) {
		return nil, false
	}
	if e.Key != k {
		return nil, false
	}
	return e, true
}

// PutExec stores an execution outcome.
func (c *Corpus) PutExec(e *ExecEntry) error {
	b, err := EncodeExecEntry(e)
	if err != nil {
		return fmt.Errorf("corpus: encoding %s: %w", e.Key.Hash(), err)
	}
	return c.store(e.Key.Hash(), b)
}

// Exec record format. An execution outcome is stored as one binary record,
// not JSON: its payload is three snapshots, which JSON would carry as
// base64 strings. All integers are little endian; every variable-length
// field is length-prefixed.
//
//	"PKEX" magic, u16 record version (execRecordVersion)
//	key: u16 length + ProgSHA, i64 MaxSteps, i64 SnapVer
//	u8 implementation count, then per implementation:
//	  u8 length + name, i64 steps, u8 baseline-fault flag (0 or 1),
//	  u32 length + snapshot bytes
//
// A record has exactly one encoding: decoding rejects trailing bytes and
// flag bytes other than 0 and 1.
const (
	execMagic         = "PKEX"
	execRecordVersion = 1
)

// EncodeExecEntry renders e as an exec record. Names longer than 255 bytes,
// more than 255 implementations, and larger fields than the format's length
// prefixes hold are errors.
func EncodeExecEntry(e *ExecEntry) ([]byte, error) {
	n := len(execMagic) + 2 + 2 + len(e.Key.ProgSHA) + 8 + 8 + 1
	for _, o := range e.Impls {
		n += 1 + len(o.Impl) + 8 + 1 + 4 + len(o.Snap)
	}
	if len(e.Key.ProgSHA) > math.MaxUint16 || len(e.Impls) > math.MaxUint8 {
		return nil, errors.New("exec record: key or implementation list too long")
	}
	le := binary.LittleEndian
	b := make([]byte, 0, n)
	b = append(b, execMagic...)
	b = le.AppendUint16(b, execRecordVersion)
	b = le.AppendUint16(b, uint16(len(e.Key.ProgSHA)))
	b = append(b, e.Key.ProgSHA...)
	b = le.AppendUint64(b, uint64(e.Key.MaxSteps))
	b = le.AppendUint64(b, uint64(e.Key.SnapVer))
	b = append(b, byte(len(e.Impls)))
	for _, o := range e.Impls {
		if len(o.Impl) > math.MaxUint8 || int64(len(o.Snap)) > math.MaxUint32 {
			return nil, fmt.Errorf("exec record: implementation %.32q too long", o.Impl)
		}
		b = append(b, byte(len(o.Impl)))
		b = append(b, o.Impl...)
		b = le.AppendUint64(b, uint64(o.Steps))
		fault := byte(0)
		if o.BaselineFault {
			fault = 1
		}
		b = append(b, fault)
		b = le.AppendUint32(b, uint32(len(o.Snap)))
		b = append(b, o.Snap...)
	}
	return b, nil
}

// errExecRecord is the error every malformed exec record decodes to.
var errExecRecord = errors.New("corpus: malformed exec record")

// DecodeExecEntry parses an exec record. Every Snap aliases b (capacity
// capped at its length); arbitrary bytes never panic, they fail.
func DecodeExecEntry(b []byte) (*ExecEntry, error) {
	r := recordReader{b: b}
	if string(r.take(len(execMagic))) != execMagic || r.u16() != execRecordVersion {
		return nil, errExecRecord
	}
	e := &ExecEntry{}
	e.Key.ProgSHA = string(r.take(int(r.u16())))
	e.Key.MaxSteps = int(r.u64())
	e.Key.SnapVer = int(r.u64())
	n := int(r.u8())
	if r.bad || n*(1+8+1+4) > len(r.b) {
		return nil, errExecRecord
	}
	e.Impls = make([]ExecOutcome, n)
	for i := range e.Impls {
		o := &e.Impls[i]
		o.Impl = string(r.take(int(r.u8())))
		o.Steps = int(r.u64())
		switch r.u8() {
		case 0:
		case 1:
			o.BaselineFault = true
		default:
			r.bad = true
		}
		o.Snap = r.take(int(r.u32()))
	}
	if r.bad || len(r.b) != 0 {
		return nil, errExecRecord
	}
	return e, nil
}

// recordReader reads little-endian exec and instr record fields. After
// the first short read every field reads as zero and bad is set.
type recordReader struct {
	b   []byte
	bad bool
}

func (r *recordReader) take(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *recordReader) u8() uint8 {
	if p := r.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *recordReader) u16() uint16 {
	if p := r.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *recordReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *recordReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *recordReader) str16() string { return string(r.take(int(r.u16()))) }

// flag reads a 0 or 1 byte; any other value is malformed.
func (r *recordReader) flag() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.bad = true
	return false
}

// count reads a u32 element count whose elements take at least size bytes
// each; a count the remaining bytes cannot hold is malformed and reads as
// zero, so no decoder allocates for elements that are not there.
func (r *recordReader) count(size int) int {
	n := int(r.u32())
	if r.bad || n > len(r.b)/size {
		r.bad = true
		return 0
	}
	return n
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
