package cpu_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rtd "repro"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/program"
)

// The bulk-charging oracle. The detailed loop (run) accumulates its
// per-commit counters in locals and adds them to Stats only at flush
// points, so three drivers that flush at different points must agree:
// Run alone (flushes at misses and exits), a loop of StepUser(1) calls
// (flushes after every instruction) and Run with a tracer attached (flushes
// before every tracer call). A commit model fed by that tracer
// recomputes the counters the flush carries from the committed
// instruction stream alone, independently of the loop, and checks
// every per-commit snapshot against them.

type loopImage struct {
	name string
	im   *program.Image
	hw   bool // run with the hardware decompressor
}

func loopImages(t *testing.T) []loopImage {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sort.s"))
	if err != nil {
		t.Fatal(err)
	}
	native, err := rtd.Assemble(string(src))
	if err != nil {
		t.Fatal(err)
	}
	imgs := []loopImage{{name: "native", im: native}}
	for _, o := range []struct {
		name string
		opts rtd.Options
		hw   bool
	}{
		{"dict", rtd.Options{Scheme: rtd.SchemeDict}, false},
		{"dict+rf", rtd.Options{Scheme: rtd.SchemeDict, ShadowRF: true}, false},
		{"codepack", rtd.Options{Scheme: rtd.SchemeCodePack}, false},
		{"codepack+rf", rtd.Options{Scheme: rtd.SchemeCodePack, ShadowRF: true}, false},
		{"dict-hw", rtd.Options{Scheme: rtd.SchemeDict}, true},
	} {
		res, err := rtd.Compress(native, o.opts)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, loopImage{name: o.name, im: res.Image, hw: o.hw})
	}
	return imgs
}

// loopResult is everything a driver's run leaves observable.
type loopResult struct {
	err       string
	exit      int32
	pc        uint32
	inHandler bool
	out       string
	stats     cpu.Stats
	ic, dc    cache.Stats
	bpLookups uint64
	bpMiss    uint64
	busReads  uint64
	busBytes  uint64
}

// String prints r's fields; fields is loopResult without this method,
// which a struct embedding loopResult would promote and so recurse.
func (r loopResult) String() string {
	type fields loopResult
	return fmt.Sprintf("%+v", fields(r))
}

type driver func(c *cpu.CPU) (int32, error)

// stepLoop is Run rebuilt from one-instruction StepUser calls.
func stepLoop(c *cpu.CPU) (int32, error) {
	for {
		if halted, code := c.Halted(); halted {
			return code, c.Stats.CPIStack.Check(c.Stats.Cycles)
		}
		if err := c.StepUser(1); err != nil {
			return -1, err
		}
	}
}

func plainRun(c *cpu.CPU) (int32, error) { return c.Run() }

func tracedRun(t *testing.T) driver {
	return func(c *cpu.CPU) (int32, error) {
		m := &commitModel{t: t, c: c, lastLoad: -1}
		c.AttachTrace(m.commit)
		return c.Run()
	}
}

func runDriver(t *testing.T, li loopImage, maxInstr uint64, d driver) loopResult {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = maxInstr
	cfg.HardwareDecompress = li.hw
	cfg.HWDecompressCycles = 12
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(li.im); err != nil {
		t.Fatal(err)
	}
	code, err := d(c)
	r := loopResult{
		exit: code, pc: c.PC(), inHandler: c.InHandler(), out: out.String(), stats: c.Stats,
		ic: c.IC.Stats, dc: c.DC.Stats, bpLookups: c.BP.Lookups, bpMiss: c.BP.Mispredicts,
		busReads: c.Mem.Reads, busBytes: c.Mem.BytesRead,
	}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// commitModel recomputes, from the committed instruction stream, the
// counters the detailed loop charges in bulk, and checks each
// per-commit Stats snapshot against them.
type commitModel struct {
	t          *testing.T
	c          *cpu.CPU
	user, hand uint64 // commits
	uSwic      uint64 // swic commits outside / inside the handler
	hSwic      uint64
	loadUse    uint64
	lastLoad   int
	prevHand   bool
	irets      int
	irEnd      uint64 // commits when the second iret retired
	failed     bool
}

func (m *commitModel) commit(_, w uint32, handler bool) {
	if handler && !m.prevHand {
		m.lastLoad = -1 // exception entry drains the pipeline
	}
	m.prevHand = handler
	if a, b := isa.SrcRegs(w); m.lastLoad >= 0 && (a == m.lastLoad || b == m.lastLoad) {
		m.loadUse++
	}
	m.lastLoad = isa.LoadDest(w)
	swic := isa.Op(w) == isa.OpSWIC
	if handler {
		m.hand++
		if swic {
			m.hSwic++
		}
	} else {
		m.user++
		if swic {
			m.uSwic++
		}
	}
	if isa.Op(w) == isa.OpCOP0 && isa.Rs(w) == isa.CopCO && isa.Funct(w) == isa.FnIRET {
		m.lastLoad = -1 // the redirect drains the pipeline
		if m.irets++; m.irets == 2 {
			m.irEnd = m.user + m.hand
		}
	}
	m.check()
}

// check compares the Stats snapshot a commit sees with the model; the
// CPI stack must also sum to Cycles.
func (m *commitModel) check() {
	if m.failed {
		return
	}
	s, cfg := m.c.Stats, m.c.Cfg
	swic := uint64(cfg.SwicExtraCycles)
	var errs []string
	if s.Instrs != m.user || s.HandlerInstrs != m.hand {
		errs = append(errs, fmt.Sprintf("Instrs/HandlerInstrs %d/%d, commits %d/%d", s.Instrs, s.HandlerInstrs, m.user, m.hand))
	}
	if s.LoadUseStalls != m.loadUse || s.CPIStack[cpu.CycleLoadUse] != m.loadUse*uint64(cfg.LoadUsePenalty) {
		errs = append(errs, fmt.Sprintf("load-use %d stalls, %d cycles; model %d", s.LoadUseStalls, s.CPIStack[cpu.CycleLoadUse], m.loadUse))
	}
	if s.CPIStack[cpu.CycleUser] != m.user+m.uSwic*swic || s.CPIStack[cpu.CycleHandler] != m.hand+m.hSwic*swic {
		errs = append(errs, fmt.Sprintf("CPI stack user/handler %d/%d, model %d/%d", s.CPIStack[cpu.CycleUser],
			s.CPIStack[cpu.CycleHandler], m.user+m.uSwic*swic, m.hand+m.hSwic*swic))
	}
	if err := s.CPIStack.Check(s.Cycles); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		m.failed = true
		m.t.Errorf("after commit %d: %v", m.user+m.hand, errs)
	}
}

// TestBulkChargingOracle: Run, a StepUser(1) loop and a traced Run leave
// identical machines: exit code, output, PC, Stats (CPI stack and
// exception latencies included), cache, predictor and bus counters.
func TestBulkChargingOracle(t *testing.T) {
	for _, li := range loopImages(t) {
		t.Run(li.name, func(t *testing.T) {
			ref := runDriver(t, li, 0, plainRun)
			if ref.err != "" {
				t.Fatalf("Run: %s", ref.err)
			}
			if ref.stats.Exceptions == 0 && li.im.Compress != nil && !li.hw {
				t.Fatal("compressed image raised no decompression exception")
			}
			for name, d := range map[string]driver{"StepUser(1) loop": stepLoop, "traced Run": tracedRun(t)} {
				if got := runDriver(t, li, 0, d); got != ref {
					t.Errorf("%s differs from Run:\n got %v\nwant %v", name, got, ref)
				}
			}
		})
	}
}

// TestBulkChargingBudget: Config.MaxInstr = k stops all three drivers
// with the same error, PC, handler state and Stats, for every k up to
// the second handler activation's iret (the first 300 instructions of
// images without a handler).
func TestBulkChargingBudget(t *testing.T) {
	for _, li := range loopImages(t) {
		t.Run(li.name, func(t *testing.T) {
			k := uint64(300)
			if li.im.Compress != nil && !li.hw {
				var m *commitModel
				runDriver(t, li, 0, func(c *cpu.CPU) (int32, error) {
					m = &commitModel{t: t, c: c, lastLoad: -1}
					c.AttachTrace(m.commit)
					return c.Run()
				})
				if m.irets < 2 {
					t.Fatalf("only %d handler activations", m.irets)
				}
				k = m.irEnd + 2
			}
			for n := uint64(1); n <= k; n++ {
				ref := runDriver(t, li, n, plainRun)
				for name, d := range map[string]driver{"StepUser(1) loop": stepLoop, "traced Run": tracedRun(t)} {
					if got := runDriver(t, li, n, d); got != ref {
						t.Fatalf("MaxInstr %d: %s differs from Run:\n got %v\nwant %v", n, name, got, ref)
					}
				}
			}
		})
	}
}

// TestBulkChargingError: an instruction that fails after charging a
// load-use interlock and a D-cache miss (an unaligned lw through the
// pointer the previous lw loaded) leaves the same error, PC and Stats
// in all three drivers: the loop flushes what it accumulated, and the
// failing instruction keeps its stalls but not its cycles.
func TestBulkChargingError(t *testing.T) {
	im, err := rtd.Assemble(`
        .data
w:      .word 2
        .text
        .proc main
main:   la    $t0, w
        lw    $t1, 0($t0)
        addu  $t2, $t1, $t1
        lw    $t3, 0($t0)
        lw    $t4, 1($t3)
        ori   $v0, $zero, 10
        syscall
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	li := loopImage{name: "unaligned", im: im}
	ref := runDriver(t, li, 0, plainRun)
	if !strings.Contains(ref.err, "unaligned lw") || ref.stats.LoadUseStalls == 0 {
		t.Fatalf("want an unaligned lw after load-use stalls, got %v", ref)
	}
	for name, d := range map[string]driver{"StepUser(1) loop": stepLoop, "traced Run": tracedRun(t)} {
		if got := runDriver(t, li, 0, d); got != ref {
			t.Errorf("%s differs from Run:\n got %v\nwant %v", name, got, ref)
		}
	}
}

// TestStepUserCap: StepUser's cap counts every retirement. A cap of one
// more than the first handler activation's length runs it and the user
// instruction after it; a cap of its length stops after the iret, with
// no error, and the next StepUser(1) retires that user instruction.
func TestStepUserCap(t *testing.T) {
	li := loopImages(t)[1] // dict
	var handler uint64
	newCPU := func() *cpu.CPU {
		c, err := cpu.New(cpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c.AttachTrace(func(_, _ uint32, h bool) {
			if h {
				handler++
			}
		})
		if err := c.Load(li.im); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Find the user step that runs the first activation, and its length.
	c, steps := newCPU(), 0
	for handler == 0 {
		if err := c.StepUser(math.MaxUint64); err != nil {
			t.Fatal(err)
		}
		steps++
	}
	n := handler
	toActivation := func() *cpu.CPU {
		c := newCPU()
		for range steps - 1 {
			if err := c.StepUser(math.MaxUint64); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	whole := toActivation()
	pre := whole.Stats.Instrs
	if err := whole.StepUser(n + 1); err != nil || whole.Stats.Instrs != pre+1 {
		t.Fatalf("StepUser(%d): err %v, %d user instructions, want 1", n+1, err, whole.Stats.Instrs-pre)
	}
	split := toActivation()
	if err := split.StepUser(n); err != nil || split.Stats.Instrs != pre || split.InHandler() {
		t.Fatalf("StepUser(%d): err %v, %d user instructions, in handler %v; want 0, out of it",
			n, err, split.Stats.Instrs-pre, split.InHandler())
	}
	if err := split.StepUser(1); err != nil {
		t.Fatal(err)
	}
	if split.Stats != whole.Stats || split.PC() != whole.PC() {
		t.Fatalf("split step differs:\n got %+v\nwant %+v", split.Stats, whole.Stats)
	}
}
