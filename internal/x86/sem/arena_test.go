package sem_test

import (
	"reflect"
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/ir"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

// TestCompileInMatchesCompile compiles every unique handler under both
// configurations into one guest arena, so bodies cross many chunk
// boundaries, and checks after the last build that each body equals
// Compile's field for field: arena building changes where a body lives,
// never what it is, and no later build overwrites an earlier body.
func TestCompileInMatchesCompile(t *testing.T) {
	unique := core.ExploreInstructionSet().Unique
	a := ir.NewArena()
	defer a.Release()
	type built struct {
		inst *x86.Inst
		cfg  sem.Config
		p    *ir.Program
	}
	var all []built
	for _, cfg := range []sem.Config{sem.BochsConfig, sem.HardwareConfig} {
		for _, u := range unique {
			inst, err := x86.Decode(u.Repr)
			if err != nil {
				t.Fatalf("%s: %v", u.Key(), err)
			}
			all = append(all, built{inst, cfg, sem.CompileIn(inst, cfg, a)})
		}
	}
	for _, b := range all {
		want := sem.Compile(b.inst, b.cfg)
		if !reflect.DeepEqual(b.p, want) {
			t.Fatalf("%s (%+v): arena body differs from Compile's:\n%s--- want:\n%s",
				x86.Disasm(b.inst), b.cfg, b.p, want)
		}
		if len(b.p.Stmts) != cap(b.p.Stmts) || len(b.p.TempWidths) != cap(b.p.TempWidths) {
			t.Fatalf("%s: arena body has room to append into the arena", x86.Disasm(b.inst))
		}
	}
}
