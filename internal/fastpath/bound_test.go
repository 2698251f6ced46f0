package fastpath_test

import (
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	rtd "repro"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/mem"
)

// pageStrider stores one word into each 64 KB page above 0x10000000
// until a store fails: a runaway program that backs a fresh page per
// store.
const pageStrider = `
        .text
        .proc main
main:   lui   $t0, 0x1000
        lui   $t1, 1
loop:   sw    $t0, 0($t0)
        addu  $t0, $t0, $t1
        b     loop
`

// TestMemoryBoundEndsRunaway: a store that would back memory past
// mem.MaxBacked ends the run with an error naming the store's PC and
// address, and the detailed, functional and sampled drivers stop at
// the same PC with the same registers and the same instructions
// retired.
func TestMemoryBoundEndsRunaway(t *testing.T) {
	im, err := rtd.Assemble(pageStrider)
	if err != nil {
		t.Fatal(err)
	}
	type end struct {
		err    string
		pc     uint32
		regs   [32]uint32
		instrs uint64
	}
	drive := map[string]func(*cpu.CPU) error{
		"detailed": func(c *cpu.CPU) error { _, err := c.Run(); return err },
		"functional": func(c *cpu.CPU) error {
			_, err := fastpath.Functional(c)
			return err
		},
		"sampled": func(c *cpu.CPU) error {
			_, err := fastpath.Sampled(c, fastpath.DefaultSampleConfig())
			return err
		},
	}
	ends := map[string]end{}
	for _, name := range []string{"detailed", "functional", "sampled"} {
		c, err := cpu.New(rtd.DefaultMachine())
		if err != nil {
			t.Fatal(err)
		}
		c.Out = io.Discard
		if err := c.Load(im); err != nil {
			t.Fatal(err)
		}
		err = drive[name](c)
		if !errors.Is(err, mem.ErrBacked) {
			t.Fatalf("%s: want an error wrapping mem.ErrBacked, got %v", name, err)
		}
		e := end{err: err.Error(), pc: c.PC(), instrs: c.Stats.Instrs + c.FStats.Instrs}
		for r := range e.regs {
			e.regs[r] = c.UserReg(r)
		}
		if !strings.HasPrefix(e.err, "cpu: store at 0x400008 to 0x") {
			t.Errorf("%s: error %q does not name the store's PC and address", name, e.err)
		}
		ends[name] = e
	}
	for _, name := range []string{"functional", "sampled"} {
		if !reflect.DeepEqual(ends[name], ends["detailed"]) {
			t.Errorf("%s ends at %+v, detailed at %+v", name, ends[name], ends["detailed"])
		}
	}
}
