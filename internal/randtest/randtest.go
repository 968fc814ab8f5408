// Package randtest implements the random-testing baseline of Martignoni et
// al. [ISSTA'09/'10], the prior state of the art the paper compares against
// (Section 8): byte sequences generated at random and validated against a
// CPU oracle, executed from randomly fuzzed register states, with the same
// three-way comparison. It exists to reproduce the paper's claim that many
// PokeEMU findings (cross-page orderings, atomicity-on-fault, precise
// limit checks) have vanishingly small probability under random testing.
package randtest

import (
	"math/rand"

	"pokeemu/internal/diff"
	"pokeemu/internal/harness"
	"pokeemu/internal/machine"
	"pokeemu/internal/testgen"
	"pokeemu/internal/x86"
)

// Config scopes a random-testing run.
type Config struct {
	Tests int
	Seed  int64
	// FuzzState randomizes registers and flags before the test instruction
	// (the ISSTA'09 setup); otherwise the baseline state is used.
	FuzzState bool
}

// Result aggregates the run.
type Result struct {
	Generated  int // random byte sequences tried
	Valid      int // accepted by the decode oracle
	Executed   int // test programs run
	DiffTests  int // tests with any filtered difference vs hardware
	RootCauses map[string]int
}

// Run executes the random-testing baseline.
func Run(cfg Config) *Result {
	r := rand.New(rand.NewSource(cfg.Seed))
	res := &Result{RootCauses: make(map[string]int)}
	image := machine.BaselineImage()
	boot := testgen.BaselineInit()
	fiF := harness.FidelisFactory()
	ceF := harness.CelerFactory()
	hwF := harness.HardwareFactory()

	for res.Executed < cfg.Tests {
		// Random instruction generation, validated by the decode oracle
		// (the "CPU as a black-box correctness oracle" of the prior work).
		raw := make([]byte, x86.MaxInstLen)
		for i := range raw {
			raw[i] = byte(r.Intn(256))
		}
		res.Generated++
		inst, err := x86.Decode(raw)
		if err != nil {
			continue
		}
		res.Valid++

		var prog []byte
		if cfg.FuzzState {
			// Randomized register state: mov r, imm32 for each register,
			// and a random EFLAGS image via push/popf.
			for reg := x86.EAX; reg <= x86.EDI; reg++ {
				v := uint32(r.Uint64())
				if reg == x86.ESP && r.Intn(4) != 0 {
					// Keep the stack usually sane, as the prior work did.
					v = machine.StackTop
				}
				prog = append(prog, x86.AsmMovRegImm32(reg, v)...)
			}
			fl := uint32(r.Uint64())&x86.StatusFlags | x86.EflagsFixed1 | 1<<x86.FlagIF
			prog = append(prog, x86.AsmPushImm32(fl)...)
			prog = append(prog, x86.AsmPopf()...)
		}
		prog = append(prog, inst.Raw...)
		prog = append(prog, x86.AsmHlt()...)

		fi := harness.RunBootBudget(fiF, image, boot, prog, harness.Budget{})
		ce := harness.RunBootBudget(ceF, image, boot, prog, harness.Budget{})
		hw := harness.RunBootBudget(hwF, image, boot, prog, harness.Budget{})
		res.Executed++

		filter := diff.UndefFilterFor(inst.Spec.Name)
		found := false
		if ds := diff.Compare(hw.Snapshot, ce.Snapshot, filter); len(ds) > 0 {
			found = true
			d := &diff.Difference{
				TestID: "rand", Handler: inst.Spec.Name, Mnemonic: inst.Spec.Mn,
				ImplA: "hardware", ImplB: "celer", Fields: ds,
			}
			res.RootCauses[diff.RootCause(d)]++
		}
		if ds := diff.Compare(hw.Snapshot, fi.Snapshot, filter); len(ds) > 0 {
			found = true
			d := &diff.Difference{
				TestID: "rand", Handler: inst.Spec.Name, Mnemonic: inst.Spec.Mn,
				ImplA: "hardware", ImplB: "fidelis", Fields: ds,
			}
			res.RootCauses[diff.RootCause(d)]++
		}
		if found {
			res.DiffTests++
		}
	}
	return res
}

// FindsCause reports whether the run discovered the given root-cause class.
func (r *Result) FindsCause(cause string) bool {
	return r.RootCauses[cause] > 0
}
