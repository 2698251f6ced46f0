package fastpath

import (
	"math"

	"repro/internal/cpu"
)

// Functional runs the loaded machine to completion entirely on the
// functional policy (cpu.CPU.RunFunctionalFor with no user-instruction
// limit). Work lands in c.FStats; c.Stats stays zero (no cycles are
// ever charged).
func Functional(c *cpu.CPU) (int32, error) {
	if _, err := c.RunFunctionalFor(math.MaxUint64); err != nil {
		return -1, err
	}
	_, code := c.Halted()
	return code, nil
}
