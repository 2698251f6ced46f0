// Package cpu implements the simulated processor: a 1-wide, in-order,
// 5-stage-pipeline timing model (the paper's Table 1 machine) extended
// with the three instructions that enable software decompression — swic,
// iret and mfc0 — and with an instruction-cache-miss exception that
// vectors to the decompression handler for misses inside the compressed
// code region.
package cpu

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/program"
)

// Config describes the simulated machine. DefaultConfig matches the
// paper's Table 1.
type Config struct {
	ICache cache.Config
	DCache cache.Config
	Bus    mem.BusConfig

	PredictorEntries  int
	MispredictPenalty int // cycles lost on a conditional-branch mispredict
	JRPenalty         int // fetch-redirect bubble for jr/jalr
	ExceptionEntry    int // pipeline flush + vector on a decompression exception
	IretCycles        int // redirect cost of returning from the handler
	SwicExtraCycles   int // serialisation bubble per swic (paper §4: pipeline flush)
	LoadUsePenalty    int // interlock bubble when an instruction uses the previous load's result

	// HardwareDecompress models a custom on-chip decompression unit
	// instead of the software handler (the hardware approaches the paper
	// contrasts with, e.g. CCRP/CodePack silicon): a miss in the
	// compressed region stalls for HWDecompressCycles and the line is
	// filled directly, with no exception and no handler execution.
	HardwareDecompress bool
	// HWDecompressCycles is the fixed line-fill latency of the hardware
	// unit (on top of fetching the compressed bytes over the bus).
	HWDecompressCycles int

	// MaxInstr bounds total executed instructions (user + handler);
	// Run returns an error when it is exceeded. 0 means no bound.
	MaxInstr uint64

	// Functional selects the functional fast-forward engine for Run():
	// identical architectural semantics, no timing model — no caches,
	// no branch predictor, no cycle accounting (see funct.go). Work is
	// counted in CPU.FStats; cpu.Stats stays untouched. The sampled
	// driver in internal/fastpath switches engines mid-run via
	// RunDetailedFor/RunFunctionalFor regardless of this flag.
	Functional bool
	// FunctionalBreak deliberately corrupts the functional engine's
	// handler swic stores (one bit per word). It exists solely as the
	// equivalence battery's negative control: a broken functional
	// handler must be caught by the battery, proving the comparison has
	// teeth.
	FunctionalBreak bool
	// FunctionalWarm selects SMARTS-style functional warming for the
	// functional engine: fetches, loads, branches and swic stores touch
	// the real I-cache, D-cache and branch predictor exactly as the
	// detailed engine would — filling, evicting and training, with no
	// cycle charges — so a fast-forward interval leaves the timing
	// state where a detailed run would have. fastpath.Sampled turns
	// this on for its intervals; plain fast-forward leaves it off and
	// keeps the faster flat-decode dispatch.
	FunctionalWarm bool

	// DisablePredecode forces the reference decode-every-cycle fetch
	// path: isa fields are re-extracted from the raw word on every
	// executed instruction instead of once per I-cache fill. Only the
	// fetch differs, so the timing model is identical; the flag exists
	// so equivalence tests can pin the predecode cache against the
	// reference behaviour.
	DisablePredecode bool
	// PredecodeCheck cross-checks every fetched predecoded instruction
	// against a fresh decode of the word the backing cache/RAM holds
	// and fails the simulation on any mismatch. diffsim and the
	// equivalence battery use it as a predecode-coherence oracle.
	PredecodeCheck bool
}

// DefaultConfig returns the paper's baseline machine.
func DefaultConfig() Config {
	return Config{
		ICache:            cache.Config{SizeBytes: 16 * 1024, LineBytes: 32, Ways: 2},
		DCache:            cache.Config{SizeBytes: 8 * 1024, LineBytes: 16, Ways: 2},
		Bus:               mem.DefaultBus(),
		PredictorEntries:  2048,
		MispredictPenalty: 4,
		JRPenalty:         2,
		ExceptionEntry:    6,
		IretCycles:        4,
		SwicExtraCycles:   1,
		LoadUsePenalty:    1, // classic 5-stage MEM->EX interlock
	}
}

// Stats accumulates run measurements.
type Stats struct {
	Cycles        uint64
	Instrs        uint64 // user (non-handler) instructions committed
	HandlerInstrs uint64 // instructions executed inside the exception handler

	IMissNative     uint64 // I-cache misses filled by the hardware controller
	IMissCompressed uint64 // I-cache misses that invoked the decompressor
	Exceptions      uint64 // decompression exceptions taken

	LoadStalls    uint64 // cycles stalled on D-cache fills
	FetchStalls   uint64 // cycles stalled on hardware I-cache fills
	LoadUseStalls uint64 // load-use interlock bubbles

	// Exception service latency (entry to iret, inclusive), for the
	// real-time determinism the paper's embedded context cares about.
	ExcCyclesTotal uint64
	ExcCyclesMax   uint64

	// CPIStack attributes every cycle above to one component; its sum is
	// always exactly Cycles (Run self-checks the invariant at exit).
	CPIStack CPIStack
}

// AvgExcCycles returns the mean decompression-exception service latency.
func (s Stats) AvgExcCycles() float64 {
	if s.Exceptions == 0 {
		return 0
	}
	return float64(s.ExcCyclesTotal) / float64(s.Exceptions)
}

// IMisses returns all non-speculative instruction-cache misses.
func (s Stats) IMisses() uint64 { return s.IMissNative + s.IMissCompressed }

// Profiler receives per-address execution and miss events; the selective
// compression machinery uses it to build per-procedure profiles.
type Profiler interface {
	CountInstr(pc uint32)
	CountMiss(pc uint32)
}

// CallProfiler is an optional extension of Profiler: implementations also
// receive procedure-call events (jal/jalr), which the code-placement
// optimiser uses to build the call-affinity graph.
type CallProfiler interface {
	Profiler
	CountCall(from, to uint32)
}

// CPU is one simulated processor instance.
type CPU struct {
	Cfg Config
	Mem *mem.Memory
	IC  *cache.Cache
	DC  *cache.Cache
	BP  *bpred.Predictor

	regs [2][32]uint32 // two register files (paper §4.1)
	bank int           // active register file
	c0   [8]uint32
	pc   uint32
	hi   uint32
	lo   uint32

	inHandler bool
	savedBank int

	compStart, compEnd uint32 // compressed code region ([start,end), 0,0 = none)
	handlerPC          uint32
	handlerEnd         uint32
	goldenText         *program.Segment // decompressed bytes (hardware-decompress mode)

	halted   bool
	exitCode int32
	lastExc  uint32 // address of the last decompression exception
	excRepet int    // consecutive exceptions at the same address
	lastLoad int    // register written by the previous instruction if it was a load (-1 otherwise)
	excStart uint64 // Stats.Cycles at the last exception entry

	// Predecoded instructions (see predecode.go). pcode holds wpl
	// records per I-cache slot, current while the cache keeps the
	// slot's derived bit set; curIdx/curSlot name the line the last
	// fetch resolved (its address >> lineShift), for the same-line fast
	// path; hdec covers handler RAM; fillBuf is the hardware-fill line
	// buffer; scratch backs the DisablePredecode reference path.
	pcode     []pinstr
	wpl       int
	lineShift uint
	curIdx    uint32
	curSlot   int
	hdec      []pinstr
	fillBuf   []byte
	scratch   pinstr
	// keyLo/keyHi is the address range the attribution observers'
	// keys hold over, as of the last callout (everything without
	// observers): a user line outside it stays off the same-line fast
	// path, so each of its fetches calls them out. cut is their next
	// retirement count to be called at (never, without observers).
	// hdecLen is the extent of handler RAM run fetches from hdec
	// without a callout (hdecSpan); a field rather than a local of run,
	// so setting it at a phase change costs the loop no register.
	keyLo, keyHi uint64
	cut          uint64
	hdecLen      uint32

	// Functional-engine state (see funct.go). fsWord/fsOK are the
	// materialised decompressed code over the compressed region, one
	// word and one validity byte per address (the functional stand-in
	// for the I-cache: never evicts); fxtra catches swic stores outside
	// that region (rare; never fetched). fcdec/fcOK cache decoded
	// records in lockstep with fsWord; fdec/fdOK do the same over the
	// native code extent [fdBase,fdEnd), and I-cache refills copy their
	// records from fdec. All flat stores are allocated lazily, on first
	// functional execution or (fdec) first refill. flastExc/fexcRepet
	// mirror the detailed repeated-exception guard.
	fsWord    []uint32
	fsOK      []uint8
	fxtra     map[uint32]uint32
	fcdec     []pinstr
	fcOK      []uint8
	fdec      []pinstr
	fdOK      []uint8
	fdBase    uint32
	fdEnd     uint32
	fhdOK     []uint8
	flastExc  uint32
	fexcRepet int

	Stats Stats
	// FStats counts functional-engine work; separate from Stats because
	// functional counters carry no timing meaning (funct.go).
	FStats FunctStats
	Prof   Profiler
	Out    io.Writer
	// Trace, when set, receives every committed instruction (after
	// execution): its address, encoding and whether it ran inside the
	// decompression handler. It fires after the instruction's Stats
	// update and after the PC has moved on, so PC() is the address of
	// the next instruction to fetch (the branch target, the EPC after
	// iret). Used by the trace ring in internal/trace.
	// Prefer AttachTrace over assigning directly: attaching composes
	// with previously installed tracers instead of replacing them.
	Trace func(pc, instr uint32, handler bool)
	// Tel, when set, receives timing events (exception spans, I-cache
	// fill stalls); internal/telemetry implements it. Nil costs nothing.
	Tel TelemetrySink
	// OnKey, when set, is the attribution observers' callout
	// (profile.Ledger installs one). The detailed loop calls it between
	// two commits wherever the next commit's attribution key may differ
	// from the last one's: on entry, before every slow-path fetch (every
	// change of user line takes one), after a decompression exception is
	// entered, and after every stop (iret, syscall, budget, user target,
	// Step). It sees Stats and PC() with every earlier commit charged and
	// nothing of the next. The loop keeps the answer's range (see keyLo)
	// and stops at its cut, so no commit crosses a key change unseen and
	// the fast path pays nothing per instruction. Prefer AttachObserver
	// over assigning directly.
	OnKey func() Key
}

// New builds a CPU with the given configuration.
func New(cfg Config) (*CPU, error) {
	ic, err := cache.New(cfg.ICache, true)
	if err != nil {
		return nil, fmt.Errorf("cpu: I-cache: %v", err)
	}
	if lb := cfg.ICache.LineBytes; lb < 4 {
		return nil, fmt.Errorf("cpu: I-cache: %dB lines cannot hold a 4-byte instruction", lb)
	}
	dc, err := cache.New(cfg.DCache, false)
	if err != nil {
		return nil, fmt.Errorf("cpu: D-cache: %v", err)
	}
	c := &CPU{
		Cfg:      cfg,
		Mem:      mem.New(cfg.Bus),
		IC:       ic,
		DC:       dc,
		BP:       bpred.New(cfg.PredictorEntries),
		lastLoad: -1,
		pcode:    make([]pinstr, cfg.ICache.SizeBytes/4),
		wpl:      cfg.ICache.LineBytes / 4,
		fillBuf:  make([]byte, cfg.ICache.LineBytes),
		keyHi:    AnyKey.Hi,
		cut:      AnyKey.Cut,
	}
	for n := cfg.ICache.LineBytes; n > 1; n >>= 1 {
		c.lineShift++
	}
	c.resetPredecode()
	c.resetFunctional()
	return c, nil
}

// MaxCompressedRegion bounds the compressed code region a machine
// accepts (the functional engine's code store takes about 26 bytes per
// word of it); 16 MiB is four million instructions, far beyond any
// shipped program.
const MaxCompressedRegion = 16 << 20

// ErrInvalidImage classifies Load's refusals of an image whose geometry
// no compressor produces.
var ErrInvalidImage = errors.New("cpu: invalid image")

// Load installs a program image: loads every non-virtual segment into
// memory, configures the compressed-region geometry and system registers,
// and resets the architectural state.
func (c *CPU) Load(im *program.Image) error {
	if err := im.Validate(); err != nil {
		return err
	}
	if err := checkRegion(im); err != nil {
		return err
	}
	c.Mem.LoadImage(im)
	c.pc = im.Entry
	c.regs[0][29] = program.StackTop // $sp
	c.regs[1][29] = program.StackTop
	if h := im.Segment(program.SegDecompressor); h != nil {
		c.handlerPC = h.Base
		c.handlerEnd = h.End()
	}
	if ci := im.Compress; ci != nil {
		if c.handlerPC == 0 && !c.Cfg.HardwareDecompress {
			return fmt.Errorf("cpu: compressed image without a %s segment", program.SegDecompressor)
		}
		c.goldenText = im.Segment(program.SegText)
		c.compStart, c.compEnd = ci.CompStart, ci.CompEnd
		c.c0[0] = ci.CompStart   // DBASE
		c.c0[1] = ci.DictBase    // DICT
		c.c0[2] = ci.IndicesBase // INDICES
		c.c0[3] = ci.LATBase     // LAT
		if ci.ShadowRF {
			c.c0[6] |= 2 // StatusShadowRF
		}
	}
	c.fdBase, c.fdEnd = 0, 0
	for _, name := range []string{program.SegText, program.SegNative} {
		s := im.Segment(name)
		if s == nil || s.Virtual || len(s.Data) == 0 {
			continue
		}
		if c.fdEnd == 0 || s.Base < c.fdBase {
			c.fdBase = s.Base
		}
		if s.End() > c.fdEnd {
			c.fdEnd = s.End()
		}
	}
	// The decode store holds whole words; a word the segments cover only
	// partly is decoded where it is fetched instead.
	c.fdBase, c.fdEnd = (c.fdBase+3)&^3, c.fdEnd&^3
	if c.fdEnd <= c.fdBase {
		c.fdBase, c.fdEnd = 0, 0
	}
	c.resetPredecode()
	c.resetFunctional()
	if !c.Cfg.DisablePredecode {
		c.predecodeHandler()
	}
	return nil
}

// checkRegion refuses, before anything is sized by it, a compressed
// region that is unaligned (the functional store indexes it by word),
// reversed, larger than MaxCompressedRegion or, when non-empty, outside
// the image's .text segment (the decompressed code it stands for).
func checkRegion(im *program.Image) error {
	ci := im.Compress
	if ci == nil {
		return nil
	}
	s, e := ci.CompStart, ci.CompEnd
	ok := s&3 == 0 && e&3 == 0 && s <= e && e-s <= MaxCompressedRegion
	if t := im.Segment(program.SegText); ok && s < e && t != nil {
		ok = s >= t.Base && uint64(e) <= uint64(t.Base)+uint64(len(t.Data))
	}
	if !ok {
		return fmt.Errorf("%w: compressed region [%#x, %#x) is not word-aligned, ordered, at most %d bytes and inside %s",
			ErrInvalidImage, s, e, MaxCompressedRegion, program.SegText)
	}
	return nil
}

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// Reg returns register r of the active file.
func (c *CPU) Reg(r int) uint32 { return c.regs[c.bank][r] }

// SetReg writes register r of the active file ($zero writes are dropped).
func (c *CPU) SetReg(r int, v uint32) {
	if r != 0 {
		c.regs[c.bank][r] = v
	}
}

// C0 returns system register n.
func (c *CPU) C0(n int) uint32 { return c.c0[n&7] }

// HiLo returns the HI and LO multiply/divide registers. Handlers never
// touch them, so they must match across native and compressed images.
func (c *CPU) HiLo() (hi, lo uint32) { return c.hi, c.lo }

// Halted reports whether the program has exited, and with which code.
func (c *CPU) Halted() (bool, int32) { return c.halted, c.exitCode }

// InHandler reports whether execution is currently inside the
// decompression handler (between exception entry and iret).
func (c *CPU) InHandler() bool { return c.inHandler }

// InCompressedRegion reports whether addr lies in the compressed
// (decompressed-on-miss) code region.
func (c *CPU) InCompressedRegion(addr uint32) bool {
	return addr >= c.compStart && addr < c.compEnd
}

func (c *CPU) inHandlerRAM(addr uint32) bool {
	return addr >= c.handlerPC && addr < c.handlerEnd
}

// Run executes instructions until the program exits or a limit is hit.
// It returns the exit code (0 if still running when maxInstr was reached
// with MaxInstr==0 semantics, see Config).
func (c *CPU) Run() (int32, error) {
	if c.Cfg.Functional {
		return c.runFunctional()
	}
	if err := c.run(c.budget(), noLimit, runOn); err != nil {
		return -1, err
	}
	// Hard telemetry invariant: the CPI stack must account for every
	// cycle the timing model charged. A violation is a simulator bug.
	if err := c.Stats.CPIStack.Check(c.Stats.Cycles); err != nil {
		return -1, fmt.Errorf("cpu: %v", err)
	}
	return c.exitCode, nil
}
