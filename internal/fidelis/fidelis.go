// Package fidelis is the high-fidelity reference emulator (the Bochs
// analogue): a careful interpreter that decodes each instruction through the
// shared tables, compiles it to IR via the semantics compiler, caches the
// compiled body, and evaluates it concretely. It enforces every
// architectural check and commits instruction effects in the hardware
// order, so instructions are atomic with respect to faults.
//
// Its IR bodies are the artifact the symbolic exploration executes: testing
// fidelis symbolically and lifting the results onto the Lo-Fi emulator is
// the paper's core loop.
//
// Two deliberate low-level divergences from the hardware oracle are
// configured via sem.BochsConfig, mirroring real Bochs-vs-CPU differences
// the paper observed: far-pointer loads fetch the selector word first, and
// a few undefined status flags are zeroed rather than computed.
package fidelis

import (
	"sync"
	"sync/atomic"

	"pokeemu/internal/coverage"
	"pokeemu/internal/emu"
	"pokeemu/internal/ir"
	"pokeemu/internal/machine"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// stepBudget bounds one instruction's micro-op count (rep with a huge count).
const stepBudget = 1 << 22

// Cache holds compiled instruction IR bodies keyed by instruction bytes.
// The interpreter itself uses a private cache per guest (like Bochs, it owns
// no persistent translations of guest code); the hardware simulator shares
// one across guests since silicon needs no translation at all — this is
// what gives the hardware its per-test cost advantage in the cost-profile
// benchmarks. Exception delivery is not in here: it is the emulator's own
// microcode, not a translation of guest bytes, and sem.CompileDelivery
// memoizes it process-wide for every emulator alike.
type Cache struct {
	mu    sync.Mutex
	progs map[string]*ir.Program
	hits  atomic.Int64
}

// NewCache returns an empty program cache.
func NewCache() *Cache { return &Cache{progs: make(map[string]*ir.Program)} }

func (c *Cache) lookup(key string) (*ir.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.progs[key]
	if ok {
		c.hits.Add(1)
	}
	return p, ok
}

func (c *Cache) insert(key string, p *ir.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.progs[key] = p
}

// Emulator is the Hi-Fi interpreter.
type Emulator struct {
	m     *machine.Machine
	cfg   sem.Config
	cache *Cache
	cov   *coverage.Map

	// Decoded counts instructions executed.
	Decoded int64
}

// New wraps a machine with the Hi-Fi interpreter using the Bochs-like
// configuration.
func New(m *machine.Machine) *Emulator {
	return NewWithConfig(m, sem.BochsConfig)
}

// NewWithConfig allows a custom semantics configuration (used by hwsim).
func NewWithConfig(m *machine.Machine, cfg sem.Config) *Emulator {
	return &Emulator{m: m, cfg: cfg, cache: NewCache()}
}

// NewShared wraps a machine sharing a program cache across guests.
func NewShared(m *machine.Machine, cfg sem.Config, cache *Cache) *Emulator {
	return &Emulator{m: m, cfg: cfg, cache: cache}
}

// CacheHits reports translation-cache reuse.
func (e *Emulator) CacheHits() int64 { return e.cache.hits.Load() }

// SetCoverage attaches an edge-coverage map: every subsequent instruction
// and delivery body records its IR control-flow edges into cov. With no map
// attached, execution takes the uninstrumented ir.Run path and pays nothing.
func (e *Emulator) SetCoverage(cov *coverage.Map) { e.cov = cov }

// runProg executes an IR body, instrumented only when a coverage map is
// attached.
func (e *Emulator) runProg(prog *ir.Program, maxSteps int) (ir.Outcome, error) {
	if e.cov == nil {
		return ir.Run(prog, e.m, maxSteps)
	}
	pid := coverage.ProgID(prog.Name)
	return ir.RunEdges(prog, e.m, maxSteps, func(from, to int) {
		e.cov.Add(pid, from, to)
	})
}

// Name implements emu.Emulator.
func (e *Emulator) Name() string { return "fidelis" }

// Machine implements emu.Emulator.
func (e *Emulator) Machine() *machine.Machine { return e.m }

// Config returns the semantics configuration in use.
func (e *Emulator) Config() sem.Config { return e.cfg }

// Program returns the compiled IR for an instruction, using the translation
// cache. Exposed so the exploration engine can execute exactly the bodies
// this emulator runs.
func (e *Emulator) Program(inst *x86.Inst) *ir.Program {
	key := string(inst.Raw)
	if p, ok := e.cache.lookup(key); ok {
		return p
	}
	p := sem.Compile(inst, e.cfg)
	e.cache.insert(key, p)
	return p
}

// Step implements emu.Emulator: fetch, decode, execute, deliver.
func (e *Emulator) Step() emu.Event {
	m := e.m
	if m.Halted {
		return emu.Event{Kind: emu.EventHalt}
	}

	code, fexc := m.FetchCode(x86.MaxInstLen)
	inst, derr := x86.Decode(code)
	if derr != nil {
		de := derr.(*x86.DecodeError)
		switch {
		case de.Kind == x86.ErrTruncated && fexc != nil:
			// The decoder ran into the faulting byte.
			return e.deliver(fexc)
		case de.Kind == x86.ErrTooLong:
			return e.deliver(&machine.ExceptionInfo{Vector: x86.ExcGP, HasErr: true})
		default:
			return e.deliver(&machine.ExceptionInfo{Vector: x86.ExcUD})
		}
	}
	e.Decoded++

	prog := e.Program(inst)
	out, err := e.runProg(prog, stepBudget)
	if err != nil {
		return emu.Event{Kind: emu.EventTimeout}
	}
	switch out.Kind {
	case ir.OutHalt:
		m.Halted = true
		return emu.Event{Kind: emu.EventHalt}
	case ir.OutRaise:
		return e.deliver(&machine.ExceptionInfo{
			Vector: out.Vector, ErrCode: out.ErrCode, HasErr: out.HasErr,
		})
	default:
		return emu.Event{Kind: emu.EventNone}
	}
}

// deliver runs the IDT delivery program for the exception. If delivery
// itself raises, the machine is shut down (triple-fault analogue).
func (e *Emulator) deliver(exc *machine.ExceptionInfo) emu.Event {
	prog := sem.CompileDelivery(exc.Vector, exc.ErrCode, exc.HasErr, e.cfg)
	out, err := e.runProg(prog, stepBudget)
	if err != nil || out.Kind == ir.OutRaise {
		e.m.Halted = true
		return emu.Event{Kind: emu.EventShutdown, Exception: exc}
	}
	return emu.Event{Kind: emu.EventException, Exception: exc}
}
