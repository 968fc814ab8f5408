// Segaudit demonstrates the paper's security finding: the Lo-Fi emulator
// does not enforce segment limits and rights, so a sandbox that relies on
// segmentation (in the style of Native Client) contains memory accesses on
// real hardware but leaks on the emulator. PokeEMU-generated tests expose
// every such missing check systematically.
package main

import (
	"fmt"
	"log"

	"pokeemu/internal/campaign"
	"pokeemu/internal/diff"
	"pokeemu/internal/harness"
	"pokeemu/internal/machine"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
)

func main() {
	fmt.Println("== Segmentation security audit ==")
	fmt.Println()
	fmt.Println("Scenario: an NaCl-style sandbox confines untrusted code with a")
	fmt.Println("64 KiB data segment. A secret lives just above the limit.")
	fmt.Println()

	image := machine.BaselineImage()
	const secretAddr = 0x00300000 // far above the 64 KiB sandbox limit
	image.Write(secretAddr, uint64(secret()), 4)

	// Sandbox setup + escape attempt: install the 64 KiB descriptor at GDT
	// slot 12, load it into DS, then read past the limit.
	lo, hi := x86.MakeDescriptor(0, 0x0ffff, x86.AttrP|x86.AttrS|x86.AttrWritable)
	prog := concat(
		x86.AsmMovMemImm32(machine.GDTBase+12*8, uint32(lo)),
		x86.AsmMovMemImm32(machine.GDTBase+12*8+4, uint32(hi)),
		x86.AsmMovRegImm16(x86.EAX, 12<<3),
		x86.AsmMovSregReg(x86.DS, x86.EAX),
		x86.AsmMovRegMem32(x86.EBX, secretAddr), // the escape attempt
		x86.AsmHlt(),
	)
	boot := testgen.BaselineInit()
	for _, f := range []harness.Factory{
		harness.HardwareFactory(), harness.FidelisFactory(), harness.CelerFactory(),
	} {
		r := harness.RunBootBudget(f, image, boot, prog, harness.Budget{})
		leaked := r.Snapshot.CPU.GPR[x86.EBX]
		switch {
		case r.Snapshot.Exception != nil && r.Snapshot.Exception.Vector == x86.ExcGP:
			fmt.Printf("  %-9s #GP — the sandbox held, nothing leaked\n", r.Impl)
		case leaked == secret():
			fmt.Printf("  %-9s NO FAULT — secret %#x leaked through the emulator!\n",
				r.Impl, leaked)
		default:
			fmt.Printf("  %-9s unexpected state (ebx=%#x, exc=%v)\n",
				r.Impl, leaked, r.Snapshot.Exception)
		}
	}

	// Now show that lifted tests find the whole class systematically: every
	// explored limit-check path of a memory instruction becomes a test, and
	// the missing checks cluster under one root cause.
	fmt.Println()
	fmt.Println("Systematic check via path-exploration lifting (mov through a")
	fmt.Println("symbolic data segment):")
	res, err := campaign.Run(campaign.Config{
		MaxPathsPerInstr: 192,
		Handlers:         []string{"mov_rv_rmv", "mov_rmv_rv"},
	})
	if err != nil {
		log.Fatal(err)
	}
	segDiffs := 0
	for _, d := range res.Differences {
		if diff.RootCause(d) == "segmentation: limits/rights not enforced" &&
			d.ImplB == "celer" {
			segDiffs++
		}
	}
	fmt.Printf("  %d explored paths → %d tests; %d expose unenforced segment checks in the Lo-Fi emulator\n",
		res.TotalPaths, res.TotalTests, segDiffs)
	if segDiffs == 0 {
		log.Fatal("expected lifted tests to expose the missing checks")
	}
	fmt.Println("\nThese regression tests remain valid once the feature is implemented,")
	fmt.Println("exactly as the paper argues for QEMU's missing segmentation support.")
}

func secret() uint32 { return 0x5ec4e7 }

func concat(parts ...[]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
