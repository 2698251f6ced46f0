package telemetry

// Windowed time-series sampling: a WindowSampler splits a run into
// windows of N committed instructions (user + handler) and records the
// full cpu.Stats delta of every window — the CPI stack, I-cache
// miss/fill counts, decompression-exception counts and bus burst bytes.
// The records are the window axis of a profile.Ledger, so they are a
// lossless decomposition of the run: summed component-wise they are
// bit-identical to the whole-run cpu.Stats (Verify enforces this;
// rtd.WindowedRun, ccprof, the diffsim oracle and the batch tests in
// window_test.go all call it).

import (
	"repro/internal/cpu"
	"repro/internal/profile"
)

// DefaultWindowSize is the default window length in committed
// instructions (user + handler): small enough to localize phases on the
// testdata programs, large enough that sampling stays off the hot path.
const DefaultWindowSize = 8192

// WindowRecord is the Stats delta of one window (see profile.Window).
type WindowRecord = profile.Window

// WindowSampler is the time view of a profile.Ledger (create one with
// NewWindowSampler): a window closes every Size committed instructions
// (Size may change until Attach), wherever it lands — mid-exception-
// handler included — because records are pure deltas of monotone
// counters. Call Finish, or Verify, after the run to flush the final
// partial window into Records.
type WindowSampler struct {
	profile.Windows
	ledger *profile.Ledger
}

// NewWindowSampler returns a sampler with the given window size
// (0 = DefaultWindowSize) on a windows-only ledger of its own.
func NewWindowSampler(size uint64) *WindowSampler {
	if size == 0 {
		size = DefaultWindowSize
	}
	w := &WindowSampler{Windows: profile.Windows{Size: size}}
	w.share(profile.NewLedger(nil))
	return w
}

// Attach installs the sampler's ledger among the CPU's attribution
// observers. Call before cpu.Load/Run; composes with previously
// attached observers.
func (w *WindowSampler) Attach(c *cpu.CPU) { w.ledger.Attach(c) }

// share moves the sampler's window axis onto l.
func (w *WindowSampler) share(l *profile.Ledger) {
	l.Sample(&w.Windows)
	w.ledger = l
}

// Finish flushes the final partial window (commits since the last full
// window, if any). Idempotent; Verify calls it.
func (w *WindowSampler) Finish() { w.ledger.Settle() }

// Verify enforces the hard timeline invariant through the ledger's one
// check: the component-wise sum of all window records must be
// bit-identical to the whole-run cpu.Stats (and bus counters), and the
// records must tile the commit axis without gaps or overlaps.
func (w *WindowSampler) Verify() error { return w.ledger.Verify() }
