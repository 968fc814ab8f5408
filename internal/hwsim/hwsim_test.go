package hwsim

import (
	"testing"

	"pokeemu/internal/fidelis"
	"pokeemu/internal/machine"
)

func TestHardwareName(t *testing.T) {
	hw := NewHardwareShared(machine.NewBaseline(nil), fidelis.NewCache())
	if hw.Name() != "hardware" {
		t.Errorf("name = %q", hw.Name())
	}
}
