// Package fidelis is the high-fidelity reference emulator (the Bochs
// analogue): a careful interpreter that decodes each instruction through the
// shared tables, compiles it to IR via the semantics compiler, caches the
// compiled body, and evaluates it concretely. It enforces every
// architectural check and commits instruction effects in the hardware
// order, so instructions are atomic with respect to faults.
//
// Its IR bodies come from the same sem.Compile the symbolic exploration
// executes: testing those bodies symbolically and lifting the results onto
// the Lo-Fi emulator is the paper's core loop.
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
// no persistent translations of guest code), whose bodies live in the
// guest's own ir.Arena until Release; the hardware simulator shares one
// across guests since silicon needs no translation at all — this is what
// gives the hardware its per-test cost advantage in the cost-profile
// benchmarks. Exception delivery is not in here: it is the emulator's own
// microcode, not a translation of guest bytes, and sem.CompileDelivery
// memoizes it process-wide for every emulator alike.
type Cache struct {
	mu    sync.Mutex
	progs map[string]*ir.Program
	max   int // 0: unbounded
	hits  atomic.Int64
}

// NewCache returns an empty program cache.
func NewCache() *Cache { return &Cache{progs: make(map[string]*ir.Program)} }

// NewBoundedCache returns an empty program cache that holds at most max
// bodies. An insert into a full cache drops every body first, so a
// process-wide cache fed ever-new instruction bytes resets instead of
// growing without limit.
func NewBoundedCache(max int) *Cache {
	return &Cache{progs: make(map[string]*ir.Program), max: max}
}

// Len returns the number of cached bodies.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.progs)
}

// lookup finds the body under key without allocating; only insert copies
// a key into the map.
func (c *Cache) lookup(key []byte) (*ir.Program, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.progs[string(key)]
	if ok {
		c.hits.Add(1)
	}
	return p, ok
}

func (c *Cache) insert(key []byte, p *ir.Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && len(c.progs) >= c.max {
		c.progs = make(map[string]*ir.Program)
	}
	c.progs[string(key)] = p
}

// Emulator is the Hi-Fi interpreter.
type Emulator struct {
	m     *machine.Machine
	cfg   sem.Config
	cache *Cache    // nil once released
	arena *ir.Arena // the private cache's bodies; nil with a shared cache
	cov   *coverage.Map

	// Step's fetch buffer and decoded instruction, reused every step.
	fetch [x86.MaxInstLen]byte
	inst  x86.Inst

	// Decoded counts instructions executed.
	Decoded int64
}

// New wraps a machine with the Hi-Fi interpreter using the Bochs-like
// configuration.
func New(m *machine.Machine) *Emulator {
	return NewWithConfig(m, sem.BochsConfig)
}

// NewWithConfig allows a custom semantics configuration (the hardware
// undefined-flag policy, for instance).
func NewWithConfig(m *machine.Machine, cfg sem.Config) *Emulator {
	return &Emulator{m: m, cfg: cfg, cache: NewCache(), arena: ir.NewArena()}
}

// NewShared wraps a machine sharing a program cache across guests.
func NewShared(m *machine.Machine, cfg sem.Config, cache *Cache) *Emulator {
	return &Emulator{m: m, cfg: cfg, cache: cache}
}

// Release ends the guest: it drops the private cache and returns the arena
// its bodies live in to the pool, where the next guest overwrites them. A
// shared cache is left as it is. Step panics afterwards rather than run a
// recycled body; Release is idempotent.
func (e *Emulator) Release() {
	if e.arena != nil {
		e.arena.Release()
		e.arena = nil
	}
	e.cache = nil
}

// CacheHits reports translation-cache reuse.
func (e *Emulator) CacheHits() int64 { return e.cache.hits.Load() }

// SetCoverage attaches an edge-coverage map: every subsequent instruction
// and delivery body records its IR control-flow edges into cov. With no map
// attached, the interpreter's edge hook costs one nil check per jump.
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

// program returns the compiled IR for an instruction, using the translation
// cache: a private cache compiles into the guest's arena, a shared one gets
// bodies that own their memory.
func (e *Emulator) program(inst *x86.Inst) *ir.Program {
	if p, ok := e.cache.lookup(inst.Raw); ok {
		return p
	}
	var p *ir.Program
	if e.arena != nil {
		p = sem.CompileIn(inst, e.cfg, e.arena)
	} else {
		p = sem.Compile(inst, e.cfg)
	}
	e.cache.insert(inst.Raw, p)
	return p
}

// Step implements emu.Emulator: fetch, decode, execute, deliver. A step
// whose body is cached allocates nothing.
func (e *Emulator) Step() emu.Event {
	if e.cache == nil {
		panic("fidelis: Step after Release")
	}
	m := e.m
	if m.Halted {
		return emu.Event{Kind: emu.EventHalt}
	}

	code, fexc := m.FetchCode(e.fetch[:0], x86.MaxInstLen)
	inst := &e.inst
	if derr := x86.DecodeInto(code, inst); derr != nil {
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

	prog := e.program(inst)
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
