// Quickstart reproduces the paper's running example (Figure 5): explore
// push %eax symbolically on the Hi-Fi emulator, pick a path that exercises
// the stack-segment checks through a rewritten GDT descriptor, print the
// generated test program, and run it on all three implementations.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"pokeemu/internal/core"
	"pokeemu/internal/diff"
	"pokeemu/internal/harness"
	"pokeemu/internal/symex"
	"pokeemu/internal/testgen"
)

func main() {
	fmt.Println("== PokeEMU quickstart: path-exploration lifting for push <eax> ==")

	// 1. Machine state-space exploration of the Hi-Fi emulator (§3.3).
	ex, err := core.NewExplorer(symex.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	u := findPush()
	res, err := ex.ExploreState(u)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explored %d paths through the Hi-Fi implementation (exhausted=%v)\n\n",
		len(res.Tests), res.Exhausted)

	// 2. Pick a path whose test state rewrites the stack-segment descriptor
	// (the Figure 5 case: GDT entry 10 bytes + ESP).
	var pick *core.TestCase
	for _, tc := range res.Tests {
		diffs := tc.Diffs()
		hasGDT, hasESP := false, false
		for name := range diffs {
			if strings.HasPrefix(name, "gm_2080") {
				hasGDT = true
			}
			if name == "st_esp" {
				hasESP = true
			}
		}
		if hasGDT && hasESP {
			pick = tc
			break
		}
	}
	if pick == nil {
		pick = res.Tests[0]
	}
	fmt.Printf("test case %s — explored outcome: %v\n", pick.ID, pick.Outcome)
	fmt.Println("test state (differences from the baseline state):")
	diffs := pick.Diffs()
	names := make([]string, 0, len(diffs))
	for n := range diffs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-18s = %#x\n", n, diffs[n])
	}

	// 3. Test program generation (§4, Figure 5b).
	prog, err := testgen.Build(pick)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngenerated test program:")
	fmt.Print(prog.String())

	// 4. Execute on the Hi-Fi emulator, the Lo-Fi emulator, and the
	// hardware oracle (§5), then compare final states (§6).
	boot := testgen.BaselineInit()
	factories := []harness.Factory{
		harness.FidelisFactory(), harness.CelerFactory(), harness.HardwareFactory(),
	}
	results := make([]*harness.Result, len(factories))
	for i, f := range factories {
		results[i] = harness.RunBootBudget(f, ex.Image(), boot, prog.Code, harness.Budget{})
	}
	fmt.Println("\nexecution results:")
	for _, r := range results {
		fmt.Printf("  %-9s exception=%v halted=%v esp=%#x\n",
			r.Impl, r.Snapshot.Exception, r.Snapshot.CPU.Halted,
			r.Snapshot.CPU.GPR[4])
	}

	filter := diff.UndefFilterFor(pick.Handler)
	fmt.Println("\ndifferences vs hardware:")
	for _, r := range results[:2] {
		ds := diff.Compare(results[2].Snapshot, r.Snapshot, filter)
		if len(ds) == 0 {
			fmt.Printf("  %-9s none\n", r.Impl)
			continue
		}
		fmt.Printf("  %-9s %d field(s):\n", r.Impl, len(ds))
		for _, d := range ds {
			fmt.Printf("            %v\n", d)
		}
	}
}

func findPush() *core.UniqueInstr {
	for _, u := range core.ExploreInstructionSet().Unique {
		if u.Key() == "push_r" {
			return u
		}
	}
	log.Fatal("push_r not found")
	return nil
}
