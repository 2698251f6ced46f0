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
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// Config describes the simulated machine. DefaultConfig matches the
// paper's Table 1. It picks no interpreter policy: the entry point
// alone does. Run, RunDetailedFor and its kin run the detailed one;
// RunFunctionalFor runs the functional one (identical architectural
// semantics, no timing model: no caches, no branch predictor, no cycle
// accounting, see fstore.go; work is counted in CPU.FStats and
// cpu.Stats stays untouched); RunFunctionalSampled runs the warm one
// (which makes the detailed engine's cache and predictor state changes
// and charges nothing).
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

	// FunctionalBreak deliberately corrupts the functional policy's
	// handler swic stores (one bit per word). It exists solely as the
	// equivalence battery's negative control: a broken functional
	// handler must be caught by the battery, proving the comparison has
	// teeth.
	FunctionalBreak bool

	// DisablePredecode forces the reference decode-every-cycle fetch
	// path: isa fields are re-extracted from the raw word on every
	// executed instruction instead of once per I-cache fill. Only the
	// fetch differs, so the timing model is identical; the flag exists
	// so equivalence tests can pin the predecode cache against the
	// reference behaviour. The functional policy, which reads no
	// I-cache, keeps its flat decode stores under it.
	DisablePredecode bool
	// PredecodeCheck cross-checks every fetched predecoded instruction
	// against a fresh decode of the word the backing cache/RAM holds
	// and fails the simulation on any mismatch. diffsim and the
	// equivalence battery use it as a predecode-coherence oracle.
	PredecodeCheck bool
	// ReplayCheck turns off handler-activation replay (replay.go) and
	// makes the forward recorder's oracle of it instead: every
	// activation is still recorded where it would be and then
	// interpreted, and one the recorder accepted, the first at its
	// BADVA included, must make the recorded D-cache, branch and swic
	// events, store nothing and end with the recorded static totals and
	// exit state, or the simulation fails.
	ReplayCheck bool
	// ReplayBreak deliberately drops the first D-cache event of every
	// replayed activation. It exists solely as the differential
	// harness's negative control for replay: a run with it must differ
	// from an interpreted one.
	ReplayBreak bool
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
	// Handler RAM is the handlerLen bytes at handlerPC (none when 0). It
	// is tested by offset (inHandlerRAM), so RAM that ends exactly at
	// 2^32 still holds its words.
	handlerPC, handlerLen uint32
	goldenText            *program.Segment // decompressed bytes (hardware-decompress mode)

	halted   bool
	exitCode int32
	lastExc  uint32 // address of the last decompression exception
	excRepet int    // consecutive exceptions at the same address
	lastLoad int    // register written by the previous instruction if it was a load (-1 otherwise)
	excStart uint64 // Stats.Cycles at the last exception entry

	// Predecoded instructions (see predecode.go). pcode holds wpl
	// records per I-cache slot, current while the cache keeps the
	// slot's derived bit set; hdec covers handler RAM; fillBuf is the
	// hardware-fill line buffer; scratch backs the DisablePredecode
	// reference path. win is the fetch window the last slow fetch
	// resolved, which the loop copies into its locals.
	pcode   []pinstr
	wpl     int
	hdec    []pinstr
	fillBuf []byte
	scratch pinstr
	win     window
	// keyLo/keyHi is the address range the attribution observers'
	// keys hold over, as of the last callout (everything without
	// observers): an observed loop clips its I-cache window to it, so
	// leaving the range leaves the window. cut is their next retirement
	// count to be called at (never, without observers).
	keyLo, keyHi uint64
	cut          uint64
	// calls counts user calls (jal, jalr) under the detailed policy by
	// [call site, target], once CallEdges made it; only the call path
	// reads it.
	calls map[[2]uint32]uint64
	// rp holds the handler activations run replays (replay.go).
	rp recordings

	// The functional policy's fetch source (see fstore.go). fsWord/fsOK
	// are the materialised decompressed code over the compressed region,
	// one word and one validity byte per address (the functional
	// stand-in for the I-cache: never evicts); fxtra holds swic stores
	// outside that region, which fetch reads before memory. fcdec
	// caches decoded records in lockstep with fsWord; fdec does the same
	// over the native code extent [fdBase,fdEnd), and I-cache refills
	// copy their records from it. A record not decoded yet is
	// pUndecoded. All flat stores are allocated lazily, on first
	// functional execution or (fdec) first refill.
	fsWord []uint32
	fsOK   []uint8
	fxtra  map[uint32]uint32
	fcdec  []pinstr
	fdec   []pinstr
	fdBase uint32
	fdEnd  uint32
	// loopOnly keeps the functional policy out of its leaf core, so
	// the loop runs every instruction (tests compare the two).
	loopOnly bool

	Stats Stats
	// FStats counts the untimed policies' work (functional and warm);
	// separate from Stats because those counters carry no timing
	// meaning (fstore.go).
	FStats FunctStats
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
	// (profile.Ledger installs one). The detailed policy calls it between
	// two commits wherever the next commit's attribution key may differ
	// from the last one's: on entry, before every slow-path fetch, when
	// a user fetch on the fast path leaves the last answer's range,
	// after a decompression exception is entered, and after every stop
	// (iret, syscall, budget, user target). It sees Stats and PC()
	// with every earlier commit charged and nothing of the next; outside
	// the handler its answer's range must hold PC(). The loop clips its
	// window to that range (see keyLo) and stops at its cut, so no commit
	// crosses a key change unseen and the fast path pays nothing per
	// instruction. Attach observers with AttachObserver, not by assigning
	// OnKey.
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
	if err := c.Mem.LoadImage(im); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidImage, err)
	}
	c.pc = im.Entry
	c.regs[0][29] = program.StackTop // $sp
	c.regs[1][29] = program.StackTop
	if h := im.Segment(program.SegDecompressor); h != nil {
		c.handlerPC, c.handlerLen = h.Base, uint32(len(h.Data))
	}
	if ci := im.Compress; ci != nil {
		if c.handlerPC == 0 && !c.Cfg.HardwareDecompress {
			return fmt.Errorf("cpu: compressed image without a %s segment", program.SegDecompressor)
		}
		c.goldenText = im.Segment(program.SegText)
		c.compStart, c.compEnd = ci.CompStart, ci.CompEnd
		c.c0[isa.C0DBase] = ci.CompStart
		c.c0[isa.C0Dict] = ci.DictBase
		c.c0[isa.C0Indices] = ci.IndicesBase
		c.c0[isa.C0LAT] = ci.LATBase
		if ci.ShadowRF {
			c.c0[isa.C0Status] |= isa.StatusShadowRF
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
	c.dropRecordings()
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

// UserReg returns register r of the user (non-shadow) file, regardless
// of the active bank. Final-state comparisons use it so a machine that
// halts inside the handler is still comparable.
func (c *CPU) UserReg(r int) uint32 { return c.regs[0][r] }

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

// inHandlerRAM reports whether addr is in handler RAM.
func (c *CPU) inHandlerRAM(addr uint32) bool {
	return addr-c.handlerPC < c.handlerLen
}

// Run executes instructions on the detailed policy until the program
// exits or a limit is hit. It returns the exit code (0 if still running
// when maxInstr was reached with MaxInstr==0 semantics, see Config).
func (c *CPU) Run() (int32, error) {
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
