package diffsim

// Known-bug injection: mutation testing of the harness itself. Each
// Mutation plants one historically plausible bug class into a built
// image set; the self-check (mutate_test.go) proves the harness detects
// every one within a bounded number of generated cases. A harness that
// cannot re-find a planted bug cannot be trusted to find a real one.

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/decomp"
	"repro/internal/isa"
	"repro/internal/program"
)

// Mutation injects one known bug into the images of a case (index order
// follows ImageKinds) before the lockstep run, or into the simulator
// through its configuration.
type Mutation struct {
	Name  string
	Descr string
	Apply func(images []*program.Image, opts Options) error
	// Machine, when set, plants the bug in every machine's configuration.
	Machine func(*cpu.Config)
	// ShadowRF means the bug shows only with the shadow-register-file
	// handlers; the self-checks run it with them.
	ShadowRF bool
}

// imageByKind returns the image with the given ImageKinds name.
func imageByKind(images []*program.Image, kind string) (*program.Image, error) {
	for i, k := range ImageKinds {
		if k == kind && i < len(images) {
			return images[i], nil
		}
	}
	return nil, fmt.Errorf("no %s image", kind)
}

// Mutations returns the shipped bug injections.
func Mutations() []*Mutation {
	return []*Mutation{
		MutDictIndexOffByOne(),
		MutDropSwic(),
		MutClobberT8(),
		MutReplaySkipDCache(),
	}
}

// MutationByName returns the named mutation, or nil.
func MutationByName(name string) *Mutation {
	for _, m := range Mutations() {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// MutDictIndexOffByOne bumps the first 16-bit codeword of the dictionary
// image's index stream by one: the handler decodes a wrong (or
// out-of-range) dictionary entry for the first instruction of the first
// compressed line, so the materialised line no longer matches the golden
// text. The swic-content oracle catches it on the very first exception.
func MutDictIndexOffByOne() *Mutation {
	return &Mutation{
		Name:  "dict-index-off-by-one",
		Descr: "first index-stream codeword incremented (wrong dictionary entry decoded)",
		Apply: func(images []*program.Image, _ Options) error {
			im, err := imageByKind(images, "dict")
			if err != nil {
				return err
			}
			idx := im.Segment(program.SegIndices)
			if idx == nil || len(idx.Data) < 2 {
				return fmt.Errorf("dict image has no index stream")
			}
			v := binary.LittleEndian.Uint16(idx.Data)
			binary.LittleEndian.PutUint16(idx.Data, v+1)
			return nil
		},
	}
}

// MutDropSwic replaces the first swic of the dictionary handler with a
// nop: the handler "runs" but never fills the missing line, so the
// retried fetch faults again and the CPU reports a handler that failed
// to make progress — a MachineError finding on the dict image.
func MutDropSwic() *Mutation {
	return &Mutation{
		Name:  "drop-swic",
		Descr: "handler's first swic replaced with nop (line never filled)",
		Apply: func(images []*program.Image, _ Options) error {
			im, err := imageByKind(images, "dict")
			if err != nil {
				return err
			}
			h := im.Segment(program.SegDecompressor)
			if h == nil {
				return fmt.Errorf("dict image has no handler segment")
			}
			for off := 0; off+4 <= len(h.Data); off += 4 {
				w := binary.LittleEndian.Uint32(h.Data[off:])
				if isa.Op(w) == isa.OpSWIC {
					binary.LittleEndian.PutUint32(h.Data[off:], 0) // nop
					return nil
				}
			}
			return fmt.Errorf("handler contains no swic")
		},
	}
}

// MutClobberT8 rebuilds the dictionary handler with an extra
// `ori $t8, $zero, 0x5A5A` immediately before its iret. Without the
// shadow register file the clobber leaks into user state and the
// register comparison catches it on the first user instruction after an
// exception. With ShadowRF the handler runs in the second bank and the
// bug is architecturally invisible — the self-check asserts both sides.
func MutClobberT8() *Mutation {
	return &Mutation{
		Name:  "clobber-t8",
		Descr: "handler writes $t8 before iret (invisible only under ShadowRF)",
		Apply: func(images []*program.Image, opts Options) error {
			im, err := imageByKind(images, "dict")
			if err != nil {
				return err
			}
			src, err := decomp.Source(decomp.Variant{
				Scheme: program.SchemeDict, ShadowRF: opts.ShadowRF})
			if err != nil {
				return err
			}
			if !strings.Contains(src, "iret") {
				return fmt.Errorf("handler source has no iret")
			}
			mutated := strings.Replace(src, "iret",
				"ori   $t8, $zero, 0x5A5A\n        iret", 1)
			mim, err := asm.Assemble(mutated)
			if err != nil {
				return fmt.Errorf("reassembling mutated handler: %w", err)
			}
			seg := mim.Segment(program.SegDecompressor)
			if seg == nil {
				return fmt.Errorf("mutated handler has no %s segment", program.SegDecompressor)
			}
			for i, s := range im.Segments {
				if s.Name == program.SegDecompressor {
					im.Segments[i] = seg
					return nil
				}
			}
			return fmt.Errorf("dict image has no handler segment")
		},
	}
}

// MutReplaySkipDCache makes handler-activation replay skip the first
// D-cache event of every replayed activation (cpu.Config.ReplayBreak):
// the replayed machine's D-cache, bus and stall counts drift from the
// interpreted one's, which the replay oracle compares. Single-RF
// handlers store to the stack and are never replayed, so the bug shows
// only under the shadow register file.
func MutReplaySkipDCache() *Mutation {
	return &Mutation{
		Name:     "replay-skip-dcache",
		Descr:    "handler replay drops one D-cache access per activation",
		Apply:    func([]*program.Image, Options) error { return nil },
		Machine:  func(c *cpu.Config) { c.ReplayBreak = true },
		ShadowRF: true,
	}
}
