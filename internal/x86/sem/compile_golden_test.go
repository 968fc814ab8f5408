package sem_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pokeemu/internal/core"
	"pokeemu/internal/ir"
	"pokeemu/internal/x86"
	"pokeemu/internal/x86/sem"
)

var update = flag.Bool("update", false, "rewrite golden files")

// digest hashes the rendered programs in order.
func digest(progs []*ir.Program) string {
	h := sha256.New()
	for _, p := range progs {
		h.Write([]byte(p.String()))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestCompileGolden pins the compiled IR of every per-instruction
// implementation the instruction-set exploration yields, under both
// configurations, plus the exception-delivery and descriptor-parse bodies:
// one SHA-256 over Program.String() per set. Any change to the semantics
// compiler or to how ir.Builder assembles a program — statement order,
// temp numbering, resolved jump targets — moves a digest. Regenerate
// intentionally with: go test ./internal/x86/sem -run TestCompileGolden
// -update
func TestCompileGolden(t *testing.T) {
	unique := core.ExploreInstructionSet().Unique
	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  sem.Config
	}{{"bochs", sem.BochsConfig}, {"hardware", sem.HardwareConfig}} {
		progs := make([]*ir.Program, 0, len(unique))
		for _, u := range unique {
			inst, err := x86.Decode(u.Repr)
			if err != nil {
				t.Fatalf("%s: %v", u.Key(), err)
			}
			progs = append(progs, sem.Compile(inst, c.cfg))
		}
		fmt.Fprintf(&b, "%s %d %s\n", c.name, len(progs), digest(progs))
	}

	var delivery []*ir.Program
	for _, cfg := range []sem.Config{sem.BochsConfig, sem.HardwareConfig} {
		// Every architectural vector plus two software-interrupt vectors;
		// error codes zero and selector-style.
		for v := 0; v < 34; v++ {
			vec := uint8(v)
			if v >= 32 {
				vec = []uint8{0x80, 0xff}[v-32]
			}
			delivery = append(delivery, sem.CompileDelivery(vec, 0, false, cfg))
			for _, ec := range []uint32{0, 0x1b} {
				delivery = append(delivery, sem.CompileDelivery(vec, ec, true, cfg))
			}
		}
	}
	fmt.Fprintf(&b, "delivery %d %s\n", len(delivery), digest(delivery))
	parse := []*ir.Program{sem.DescriptorParseProgram(false), sem.DescriptorParseProgram(true)}
	fmt.Fprintf(&b, "descparse %d %s\n", len(parse), digest(parse))

	path := filepath.Join("testdata", "compile.golden")
	got := b.String()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(want) != got {
		t.Errorf("compiled IR differs from %s (run with -update to regenerate):\n--- want:\n%s--- got:\n%s",
			path, want, got)
	}
}
