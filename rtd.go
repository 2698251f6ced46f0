package rtd

import (
	"bytes"
	"fmt"

	"repro/internal/asm"
	"repro/internal/codec"
	"repro/internal/compress/dict"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/minic"
	"repro/internal/placement"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/selective"
	"repro/internal/session"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// Image is a linked CLR32 program: segments, symbols, the procedure table
// and (for compressed programs) the compressed-region geometry.
type Image = program.Image

// Scheme selects a compression algorithm.
type Scheme = program.Scheme

// Compression schemes.
const (
	// SchemeDict is the paper's dictionary compression: 16-bit indices
	// into a dictionary of unique instruction words (§3.1).
	SchemeDict = program.SchemeDict
	// SchemeCodePack is the CodePack-style coder: variable-length
	// halfword codes in 16-instruction groups with a mapping table (§3.2).
	SchemeCodePack = program.SchemeCodePack
	// SchemeProcDict uses the dictionary codec at procedure granularity
	// (whole procedures decompressed per miss), modelling the
	// procedure-based scheme the paper compares against (§2, §5.2).
	SchemeProcDict = program.SchemeProcDict
	// SchemeCopy is a null decompressor that copies lines from a backed
	// golden image: it isolates the exception + swic mechanism overhead.
	SchemeCopy = core.SchemeCopy
)

// Options controls Compress. See core.Options.
type Options = core.Options

// IndexBits selects the dictionary codeword width.
type IndexBits = dict.IndexBits

// Dictionary codeword widths: the paper's 16-bit indices, and an 8-bit
// ablation for programs with at most 256 unique instructions.
const (
	Index16 = dict.Index16
	Index8  = dict.Index8
)

// Result is a compressed program plus its size accounting.
type Result = core.Result

// MachineConfig describes the simulated processor (paper Table 1).
type MachineConfig = cpu.Config

// Stats are the simulator's run measurements.
type Stats = cpu.Stats

// Profile is one run's cost attribution per cache line and per
// procedure, with its call edges: the input of selective compression
// and placement.
type Profile = profile.Profile

// CPIStack is the per-run cycle attribution (every cycle charged to one
// component; the components always sum to Stats.Cycles).
type CPIStack = cpu.CPIStack

// Collector gathers run telemetry: latency histograms, per-set cache
// heatmaps, and the event streams behind the Chrome-trace exporter.
type Collector = telemetry.Collector

// Report is the machine-readable digest of one run (the ccprof /
// `simrun -json` output).
type Report = telemetry.Report

// Policy is a selective-compression ranking policy.
type Policy = selective.Policy

// Selection policies (paper §3.3).
const (
	ByExecution = selective.ByExecution
	ByMisses    = selective.ByMisses
)

// BenchmarkProfile parameterises one synthetic benchmark program.
type BenchmarkProfile = synth.Profile

// Assemble translates CLR32 assembly source into a native program image.
func Assemble(src string) (*Image, error) { return asm.Assemble(src) }

// CompileMiniC compiles MiniC source (a small C-like language; see
// internal/minic) into a native program image. Each function becomes a
// procedure, so compiled code works with profiling, selective compression
// and placement like any other program.
func CompileMiniC(src string) (*Image, error) { return minic.Compile(src) }

// Compress rewrites a native image into a compressed image with the
// matching software decompression handler installed (the paper's §3).
func Compress(im *Image, opts Options) (*Result, error) { return core.Compress(im, opts) }

// DefaultMachine returns the paper's baseline machine (Table 1): 1-wide
// in-order core, 16KB/32B/2-way I-cache, 8KB/16B/2-way D-cache, 64-bit
// memory bus with 10-cycle first access.
func DefaultMachine() MachineConfig { return cpu.DefaultConfig() }

// RunResult is the outcome of one simulation.
type RunResult struct {
	ExitCode int32
	Output   string
	Stats    Stats
}

// Slowdown returns this run's cycles relative to a baseline run.
func (r RunResult) Slowdown(baseline RunResult) float64 {
	if baseline.Stats.Cycles == 0 {
		return 0
	}
	return float64(r.Stats.Cycles) / float64(baseline.Stats.Cycles)
}

// MissRatio returns non-speculative I-cache misses per committed
// instruction.
func (r RunResult) MissRatio() float64 {
	if r.Stats.Instrs == 0 {
		return 0
	}
	return float64(r.Stats.IMisses()) / float64(r.Stats.Instrs)
}

// Run executes the image to completion on a machine with the given
// configuration.
func Run(im *Image, cfg MachineConfig) (RunResult, error) {
	r, _, err := run(im, cfg)
	return r, err
}

// ProfiledRun executes the image and also collects the per-procedure
// profile used by selective compression and placement.
func ProfiledRun(im *Image, cfg MachineConfig) (RunResult, *Profile, error) {
	rec := profile.NewRecorder(im)
	r, _, err := run(im, cfg, rec.Attach)
	if err != nil {
		return RunResult{}, nil, err
	}
	return r, rec.Profile(), nil
}

// InstrumentedRun executes the image with the full telemetry layer
// attached and returns the run result, its report, and the collector
// (for the Chrome-trace exporter and raw histograms).
func InstrumentedRun(im *Image, cfg MachineConfig) (RunResult, *Report, *Collector, error) {
	return instrumented(im, cfg, nil)
}

// WindowSampler is the windowed time-series telemetry sampler: cpu.Stats
// deltas snapshotted every N committed instructions.
type WindowSampler = telemetry.WindowSampler

// WindowRecord is one window's Stats delta.
type WindowRecord = telemetry.WindowRecord

// WindowedRun is InstrumentedRun plus windowed time-series sampling:
// the collector carries a WindowSampler with the given window size
// (0 = telemetry.DefaultWindowSize), the report gains its phase summary,
// and the window sum invariant (component-wise window sums bit-identical
// to the whole-run Stats) is verified before returning — a violation is
// an error, never silent.
func WindowedRun(im *Image, cfg MachineConfig, window uint64) (RunResult, *Report, *Collector, error) {
	return instrumented(im, cfg, telemetry.NewWindowSampler(window))
}

// instrumented runs the image with a collector attached that records
// events for the Chrome trace and, given a window sampler, the window
// time series, whose sums it verifies.
func instrumented(im *Image, cfg MachineConfig, windows *WindowSampler) (RunResult, *Report, *Collector, error) {
	col := telemetry.New()
	col.MaxEvents = telemetry.DefaultMaxEvents
	col.Windows = windows
	r, c, err := run(im, cfg, col.Attach)
	if err == nil && windows != nil {
		err = windows.Verify()
	}
	if err != nil {
		return RunResult{}, nil, nil, err
	}
	return r, telemetry.NewReport(c, col), col, nil
}

// machine builds the image's machine through the session's constructor
// with the observers attach installs, the program's output captured in
// out, and a budget of 2e9 instructions when cfg sets none.
func machine(im *Image, cfg MachineConfig, out *bytes.Buffer, attach ...func(*cpu.CPU)) (*cpu.CPU, error) {
	if cfg.MaxInstr == 0 {
		cfg.MaxInstr = 2_000_000_000
	}
	return session.Machine(cfg, im, out, attach...)
}

// run executes the image to completion with the observers attach
// installs.
func run(im *Image, cfg MachineConfig, attach ...func(*cpu.CPU)) (RunResult, *cpu.CPU, error) {
	var out bytes.Buffer
	c, err := machine(im, cfg, &out, attach...)
	if err != nil {
		return RunResult{}, nil, err
	}
	code, err := c.Run()
	if err != nil {
		return RunResult{}, nil, err
	}
	return RunResult{ExitCode: code, Output: out.String(), Stats: c.Stats}, c, nil
}

// Select returns the procedures to keep as native code: the top-ranked
// ones under the policy until they cover fraction of the profile metric.
func Select(prof *Profile, policy Policy, fraction float64) map[string]bool {
	return selective.Select(prof, policy, fraction)
}

// SelectionThresholds are the coverage fractions the paper evaluates.
func SelectionThresholds() []float64 {
	return append([]float64(nil), selective.Thresholds...)
}

// PlacementOrder computes a profile-guided procedure layout order
// (Pettis–Hansen chain merging over the call-affinity graph). Pass it as
// Options.Order to combine code placement with compression — the unified
// framework the paper proposes as future work (§5.3).
func PlacementOrder(prof *Profile) []string {
	return placement.Order(prof)
}

// Benchmarks returns the profiles of the eight benchmark stand-ins
// (cc1, ghostscript, go, ijpeg, mpeg2enc, pegwit, perl, vortex).
func Benchmarks() []BenchmarkProfile { return synth.Benchmarks() }

// BuildBenchmark generates the named benchmark as a native image.
func BuildBenchmark(name string) (*Image, error) {
	p, ok := synth.ByName(name)
	if !ok {
		return nil, fmt.Errorf("rtd: unknown benchmark %q", name)
	}
	return synth.Build(p)
}

// BuildBenchmarkScaled generates the named benchmark with its dynamic
// length multiplied by scale (for quick runs).
func BuildBenchmarkScaled(name string, scale float64) (*Image, error) {
	p, ok := synth.ByName(name)
	if !ok {
		return nil, fmt.Errorf("rtd: unknown benchmark %q", name)
	}
	return synth.Build(p.Scale(scale))
}

// HandlerSource returns the CLR32 assembly of the software decompressor
// for the scheme (the paper's Figure 2 for SchemeDict). The scheme is
// resolved through the codec registry, so it covers every registered
// codec including third-party ones.
func HandlerSource(scheme Scheme, shadowRF bool) (string, error) {
	c, err := codec.Lookup(string(scheme))
	if err != nil {
		return "", err
	}
	return c.HandlerSource(shadowRF)
}

// Disassemble renders the image's code segment as assembly, one
// instruction per line, for inspection and debugging.
func Disassemble(im *Image) string {
	return program.DisassembleImage(im)
}

// Verify runs two images (typically a native program and its compressed
// rewrite) in lockstep and returns nil when they are architecturally
// equivalent, or an error describing the first divergence. maxSteps
// bounds the comparison (0 = run to completion).
func Verify(a, b *Image, cfg MachineConfig, maxSteps uint64) error {
	if cfg.MaxInstr == 0 {
		cfg.MaxInstr = 2_000_000_000
	}
	return verify.Lockstep(a, b, cfg, maxSteps)
}
