package cpu

// Full-machine-state capture and restore. MachineState covers every
// field of the CPU that influences future execution or measurement:
// both register banks, CP0, PC/HI/LO, handler and compressed-region
// geometry, the golden decompressed text, the pipeline-local hazard
// and exception-guard state, both engines' statistics, and the
// functional engine's materialised code store. The predecoded records
// (the per-slot pcode, hdec) and
// the functional decode caches are pure caches over state captured
// elsewhere (the I-cache, memory, the functional store) and are rebuilt
// lazily after RestoreState: restoring the I-cache clears every slot's
// derived bit.
//
// MachineState deliberately excludes the memory image, the caches and
// the branch predictor: those live in their own packages with their own
// Snapshot/Restore (internal/fastpath composes all of them into one
// checkpoint). RestoreState assumes memory has already been restored —
// it re-predecodes handler RAM from memory.

import (
	"sort"

	"repro/internal/program"
)

// FStoreWord is one materialised functional code word.
type FStoreWord struct {
	Addr uint32 `json:"addr"`
	Word uint32 `json:"word"`
}

// MachineState is a serialisable snapshot of the CPU core.
type MachineState struct {
	Regs      [2][32]uint32 `json:"regs"`
	Bank      int           `json:"bank"`
	C0        [8]uint32     `json:"c0"`
	PC        uint32        `json:"pc"`
	HI        uint32        `json:"hi"`
	LO        uint32        `json:"lo"`
	InHandler bool          `json:"in_handler"`
	SavedBank int           `json:"saved_bank"`

	CompStart  uint32 `json:"comp_start"`
	CompEnd    uint32 `json:"comp_end"`
	HandlerPC  uint32 `json:"handler_pc"`
	HandlerEnd uint32 `json:"handler_end"` // 0 with a nonzero HandlerPC: 2^32

	// Golden decompressed text (hardware-decompress mode); empty when
	// the image has none.
	GoldenName    string `json:"golden_name,omitempty"`
	GoldenBase    uint32 `json:"golden_base,omitempty"`
	GoldenData    []byte `json:"golden_data,omitempty"`
	GoldenVirtual bool   `json:"golden_virtual,omitempty"`

	Halted   bool  `json:"halted"`
	ExitCode int32 `json:"exit_code"`

	LastExc  uint32 `json:"last_exc"`
	ExcRepet int    `json:"exc_repet"`
	LastLoad int    `json:"last_load"`
	ExcStart uint64 `json:"exc_start"`

	Stats  Stats      `json:"stats"`
	FStats FunctStats `json:"fstats"`

	// FStore is the functional engine's materialised code, sorted by
	// address so the encoding is deterministic.
	FStore []FStoreWord `json:"fstore,omitempty"`
}

// CaptureState snapshots the CPU core (deep copies throughout: the
// original may keep running without aliasing the snapshot).
func (c *CPU) CaptureState() MachineState {
	st := MachineState{
		Regs:      c.regs,
		Bank:      c.bank,
		C0:        c.c0,
		PC:        c.pc,
		HI:        c.hi,
		LO:        c.lo,
		InHandler: c.inHandler,
		SavedBank: c.savedBank,

		CompStart:  c.compStart,
		CompEnd:    c.compEnd,
		HandlerPC:  c.handlerPC,
		HandlerEnd: c.handlerPC + c.handlerLen,

		Halted:   c.halted,
		ExitCode: c.exitCode,

		LastExc:  c.lastExc,
		ExcRepet: c.excRepet,
		LastLoad: c.lastLoad,
		ExcStart: c.excStart,

		Stats:  c.Stats,
		FStats: c.FStats,
	}
	if g := c.goldenText; g != nil {
		st.GoldenName = string(g.Name)
		st.GoldenBase = g.Base
		st.GoldenData = make([]byte, len(g.Data))
		copy(st.GoldenData, g.Data)
		st.GoldenVirtual = g.Virtual
	}
	for i, ok := range c.fsOK {
		if ok != 0 {
			st.FStore = append(st.FStore, FStoreWord{Addr: c.compStart + uint32(i)<<2, Word: c.fsWord[i]})
		}
	}
	for a, w := range c.fxtra {
		st.FStore = append(st.FStore, FStoreWord{Addr: a, Word: w})
	}
	sort.Slice(st.FStore, func(i, j int) bool { return st.FStore[i].Addr < st.FStore[j].Addr })
	return st
}

// RestoreState replaces the CPU core state with the snapshot and
// rebuilds the derived caches (predecode, the functional decode
// caches). Memory must be restored before calling this: handler RAM
// is re-predecoded from it.
func (c *CPU) RestoreState(st MachineState) {
	c.regs = st.Regs
	c.bank = st.Bank
	c.c0 = st.C0
	c.pc = st.PC
	c.hi = st.HI
	c.lo = st.LO
	c.inHandler = st.InHandler
	c.savedBank = st.SavedBank

	c.compStart, c.compEnd = st.CompStart, st.CompEnd
	c.handlerPC, c.handlerLen = st.HandlerPC, handlerLen(st.HandlerPC, st.HandlerEnd)
	c.goldenText = nil
	if len(st.GoldenData) > 0 || st.GoldenName != "" {
		data := make([]byte, len(st.GoldenData))
		copy(data, st.GoldenData)
		c.goldenText = &program.Segment{
			Name:    st.GoldenName,
			Base:    st.GoldenBase,
			Data:    data,
			Virtual: st.GoldenVirtual,
		}
	}

	c.halted = st.Halted
	c.exitCode = st.ExitCode

	c.lastExc = st.LastExc
	c.excRepet = st.ExcRepet
	c.lastLoad = st.LastLoad
	c.excStart = st.ExcStart

	c.Stats = st.Stats
	c.FStats = st.FStats

	c.resetPredecode()
	c.resetFunctional()
	c.dropRecordings()
	// The native code extent is normally set by Load from the image's
	// segment table; a restored CPU has no image, so rederive it from
	// the memory pages backed at the native code base. The extent only
	// bounds the functional decode cache — coverage differences change
	// speed, never results (uncovered code decodes per fetch).
	c.fdBase, c.fdEnd = 0, 0
	if base := uint32(program.NativeBase); c.Mem.Backed(base) {
		end := base
		for end < program.CompBase && c.Mem.Backed(end) {
			end += 1 << 16 // page granularity
		}
		c.fdBase, c.fdEnd = base, end
	}
	for _, fw := range st.FStore {
		c.fsPut(fw.Addr, fw.Word)
	}
	if !c.Cfg.DisablePredecode {
		c.predecodeHandler()
	}
}

// handlerLen is the length of handler RAM from base to end, where an
// end of 0 stands for 2^32. A reversed extent is none.
func handlerLen(base, end uint32) uint32 {
	if end != 0 && end < base {
		return 0
	}
	return end - base
}
