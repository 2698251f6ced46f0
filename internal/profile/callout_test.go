package profile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/program"
	"repro/internal/trace"
)

// The key-callout battery. TestLedgerMatchesPerCommitReference runs its
// ledgers beside a per-commit tracer, so the detailed loop there
// flushes on every commit. Here the ledgers run without one, on the
// loop's fast paths, and must still reproduce, byte for byte, a
// per-commit reference run of the same image on a second machine: under
// Step, under a budget that stops mid-handler or mid-line, beside a
// debugging ring, and where a procedure boundary falls inside an
// I-cache line.

var calloutSizes = []uint64{1, 7, 8192}

// observation is what one run's observers produced: the full ledger's
// profile JSON and, per window size, the window records of each ledger
// (the reference has one per size, ledgers runs two: full, windows-only).
type observation struct {
	profile []byte
	windows [][]Window
	retired uint64
}

func runToEnd(c *cpu.CPU) error { _, err := c.Run(); return err }

func stepToEnd(c *cpu.CPU) error {
	for {
		if halted, _ := c.Halted(); halted {
			return nil
		}
		if err := c.Step(); err != nil {
			return err
		}
	}
}

func machine(t *testing.T, cfg cpu.Config) *cpu.CPU {
	t.Helper()
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func profileJSON(t *testing.T, p *Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// reference runs im under the per-commit reference recorder alone and
// returns what it saw and the error drive returned.
func reference(t *testing.T, im *program.Image, cfg cpu.Config, drive func(*cpu.CPU) error) (observation, error) {
	t.Helper()
	c := machine(t, cfg)
	ref := newRef(im, calloutSizes)
	ref.attach(c)
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	err := drive(c)
	ref.finish()
	o := observation{profile: profileJSON(t, ref.profile()), retired: c.Stats.Instrs + c.Stats.HandlerInstrs}
	for _, w := range ref.axes {
		o.windows = append(o.windows, w.records)
	}
	return o, err
}

// ledgers runs im once per window size, each run on its own machine
// with a full ledger and a windows-only ledger of that size attached
// plus whatever setup attaches (a window of 1 stops the loop at every
// commit, so sharing a machine would hide the fast paths from the
// larger sizes). It verifies every ledger, requires the runs' profiles
// to agree and returns what they saw and the error the last drive
// returned.
func ledgers(t *testing.T, im *program.Image, cfg cpu.Config, setup func(*cpu.CPU), drive func(*cpu.CPU) error) (observation, error) {
	t.Helper()
	var o observation
	var err error
	for _, size := range calloutSizes {
		c := machine(t, cfg)
		r, l := NewRecorder(im), NewLedger(nil)
		full, win := &Windows{Size: size}, &Windows{Size: size}
		r.Sample(full)
		r.Attach(c)
		l.Sample(win)
		l.Attach(c)
		if setup != nil {
			setup(c)
		}
		if err := c.Load(im); err != nil {
			t.Fatal(err)
		}
		err = drive(c)
		if verr := r.Verify(); verr != nil {
			t.Errorf("full ledger, w=%d: %v", size, verr)
		}
		if verr := l.Verify(); verr != nil {
			t.Errorf("windows-only ledger, w=%d: %v", size, verr)
		}
		p := profileJSON(t, r.Profile())
		if o.profile == nil {
			o.profile = p
		} else if !bytes.Equal(p, o.profile) {
			t.Errorf("full ledgers of w=%d and w=%d disagree", calloutSizes[0], size)
		}
		o.windows = append(o.windows, full.Records, win.Records)
		o.retired = c.Stats.Instrs + c.Stats.HandlerInstrs
	}
	return o, err
}

// sameObservation compares a ledgers run against its reference.
func sameObservation(t *testing.T, name string, got, want observation) {
	t.Helper()
	if got.retired != want.retired {
		t.Fatalf("%s: ledger run retired %d instructions, reference %d", name, got.retired, want.retired)
	}
	if !bytes.Equal(got.profile, want.profile) {
		t.Errorf("%s: ledger profile differs from the per-commit reference", name)
	}
	for i, size := range calloutSizes {
		for j, kind := range []string{"full", "windows-only"} {
			if !slices.Equal(got.windows[2*i+j], want.windows[i]) {
				t.Errorf("%s/w=%d: %s ledger windows differ from the per-commit reference", name, size, kind)
			}
		}
	}
}

// calloutImages returns sort.s native, dict+RF and CodePack, and
// strings.s dict: user code, handler activations and block fills.
func calloutImages(t *testing.T) map[string]*program.Image {
	t.Helper()
	sort, str := assemble(t, mustRead(t, "sort.s")), assemble(t, mustRead(t, "strings.s"))
	return map[string]*program.Image{
		"sort/native":   sort,
		"sort/dict+rf":  compressRF(t, sort, "dict"),
		"sort/codepack": compress(t, sort, "codepack"),
		"strings/dict":  compress(t, str, "dict"),
	}
}

func compressRF(t *testing.T, im *program.Image, scheme string) *program.Image {
	t.Helper()
	res, err := core.Compress(im, core.Options{Scheme: program.Scheme(scheme), ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

func calloutConfig() cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 20_000_000
	return cfg
}

// TestLedgerCalloutsStepDriven: a machine driven one Step at a time, as
// diffsim's lockstep drives it, calls its observers out at every step.
func TestLedgerCalloutsStepDriven(t *testing.T) {
	for name, im := range calloutImages(t) {
		want, err := reference(t, im, calloutConfig(), runToEnd)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := ledgers(t, im, calloutConfig(), nil, stepToEnd)
		if err != nil {
			t.Fatalf("%s: stepped: %v", name, err)
		}
		sameObservation(t, name, got, want)
	}
}

// commitLog runs im to the end under a tracer and returns, per commit,
// whether it ran in the handler and its PC.
func commitLog(t *testing.T, im *program.Image) (handler []bool, pcs []uint32) {
	t.Helper()
	c := machine(t, calloutConfig())
	c.AttachTrace(func(pc, instr uint32, h bool) {
		handler, pcs = append(handler, h), append(pcs, pc)
	})
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return handler, pcs
}

// TestLedgerCalloutsBudget: a MaxInstr budget that runs out in the
// middle of a handler activation, or between two commits of one user
// line, stops the loop where no key changes; the ledgers must still
// account every retirement up to the stop.
func TestLedgerCalloutsBudget(t *testing.T) {
	im := compressRF(t, assemble(t, mustRead(t, "sort.s")), "dict")
	handler, pcs := commitLog(t, im)
	lineMask := uint32(cpu.DefaultConfig().ICache.LineBytes - 1)
	budgets := map[string]uint64{}
	for k := 1; k+1 < len(pcs) && len(budgets) < 2; k++ {
		// Commit k (1-based) is the last one the budget allows.
		prev, next := k-1, k
		switch {
		case handler[prev] && handler[next] && budgets["mid-handler"] == 0 && k > 40:
			budgets["mid-handler"] = uint64(k)
		case !handler[prev] && !handler[next] && pcs[prev]&^lineMask == pcs[next]&^lineMask &&
			pcs[next] == pcs[prev]+4 && budgets["mid-line"] == 0 && k > 40:
			budgets["mid-line"] = uint64(k)
		}
	}
	if len(budgets) != 2 {
		t.Fatalf("found budgets %v, want a mid-handler and a mid-line one", budgets)
	}
	for name, budget := range budgets {
		cfg := calloutConfig()
		cfg.MaxInstr = budget
		want, werr := reference(t, im, cfg, runToEnd)
		got, gerr := ledgers(t, im, cfg, nil, runToEnd)
		for _, err := range []error{werr, gerr} {
			if err == nil || !strings.Contains(err.Error(), "budget") {
				t.Fatalf("%s: budget %d: want the budget error, got %v", name, budget, err)
			}
		}
		if got.retired != budget {
			t.Errorf("%s: stopped after %d retirements, budget %d", name, got.retired, budget)
		}
		sameObservation(t, fmt.Sprintf("%s@%d", name, budget), got, want)
	}
}

func mustRead(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestLedgerCalloutsBesideRing: a debugging ring on the commit tracer
// and the ledgers on the key callouts see the same run, each all of it.
func TestLedgerCalloutsBesideRing(t *testing.T) {
	for name, im := range calloutImages(t) {
		want, err := reference(t, im, calloutConfig(), runToEnd)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		var ring *trace.Ring
		got, err := ledgers(t, im, calloutConfig(), func(c *cpu.CPU) {
			ring = trace.NewRing(64, im)
			ring.Attach(c)
		}, runToEnd)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if ring.Count() != got.retired {
			t.Errorf("%s: ring saw %d commits, machine retired %d", name, ring.Count(), got.retired)
		}
		sameObservation(t, name, got, want)
	}
}

// boundarySrc packs three procedures into the first I-cache line: main
// calls inc inside its own line, and inc falls through into tail, so
// consecutive commits change procedure without changing line.
const boundarySrc = `
        .text
        .proc main
main:   ori   $s0, $zero, 300
loop:   jal   inc
        addiu $s0, $s0, -1
        bgtz  $s0, loop
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc inc
inc:    addiu $t0, $t0, 1
        .endp
        .proc tail
tail:   addiu $t1, $t1, 1
        jr    $ra
        .endp
`

// TestLedgerCalloutsProcBoundaryInLine: a line with a procedure
// boundary inside stays off the same-line fast path while a ledger is
// attached, so every procedure change inside it is called out.
func TestLedgerCalloutsProcBoundaryInLine(t *testing.T) {
	native := assemble(t, boundarySrc)
	_, pcs := commitLog(t, native)
	lineMask := uint32(cpu.DefaultConfig().ICache.LineBytes - 1)
	procOf := func(pc uint32) int {
		for i, p := range native.Procs {
			if p.Contains(pc) {
				return i
			}
		}
		return -1
	}
	crossings := 0
	for i := 1; i < len(pcs); i++ {
		if pcs[i]&^lineMask == pcs[i-1]&^lineMask && procOf(pcs[i]) != procOf(pcs[i-1]) {
			crossings++
		}
	}
	if crossings < 300 {
		t.Fatalf("%d same-line procedure changes, want at least 300; the case is vacuous", crossings)
	}
	for name, im := range map[string]*program.Image{
		"native":  native,
		"dict+rf": compressRF(t, native, "dict"),
	} {
		want, err := reference(t, im, calloutConfig(), runToEnd)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := ledgers(t, im, calloutConfig(), nil, runToEnd)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		sameObservation(t, name, got, want)
	}
}

// TestVerifyCatchesMissedCut: a window that runs past its cut — the
// machine failed to stop there and call the ledger out — is refused by
// Verify even though the windows still tile the run and sum to it.
func TestVerifyCatchesMissedCut(t *testing.T) {
	im := assemble(t, mustRead(t, "sort.s"))
	c := machine(t, calloutConfig())
	l, w := NewLedger(nil), &Windows{Size: 7}
	l.Sample(w)
	l.Attach(c)
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if err := runToEnd(c); err != nil {
		t.Fatal(err)
	}
	if err := l.Verify(); err != nil {
		t.Fatal(err)
	}
	a, b := &w.Records[0], &w.Records[1]
	a.EndInstr++
	b.StartInstr++
	err := l.Verify()
	if err == nil || !strings.Contains(err.Error(), "not 7") {
		t.Fatalf("a window of 8 commits passed Verify (err %v)", err)
	}
}

// TestLedgerCalloutsUserInHandlerRAM: user code that jumps into handler
// RAM runs the handler's words as user commits, each keyed by its own
// address. Outside the handler, with a ledger attached, the loop fetches
// handler RAM through the callout path, not straight from its predecoded
// copy. The stray handler ends at its iret, which is illegal in user
// mode, so both runs end in the same error.
func TestLedgerCalloutsUserInHandlerRAM(t *testing.T) {
	src := fmt.Sprintf(`
        .text
        .proc main
main:   lui   $t0, %#x
        jr    $t0
        .endp
`, program.HandlerBase>>16)
	im := compress(t, assemble(t, src), "dict")
	want, werr := reference(t, im, calloutConfig(), runToEnd)
	got, gerr := ledgers(t, im, calloutConfig(), nil, runToEnd)
	for _, err := range []error{werr, gerr} {
		if err == nil || !strings.Contains(err.Error(), "iret outside handler") {
			t.Fatalf("want the stray iret's error, got %v", err)
		}
	}
	if !bytes.Contains(want.profile, []byte(`"name": "`+OutsideName+`"`)) {
		t.Fatal("no user commit outside the procedure table; the case is vacuous")
	}
	sameObservation(t, "dict", got, want)
}

// TestLedgerCalloutsAfterFunctional: the functional engine moves the
// PC without calling anyone out, so every detailed stretch calls the
// observers out on entry before it fetches, even from the line its last
// fetch left current. Only detailed commits are charged; the reference
// sees exactly those through its tracer.
func TestLedgerCalloutsAfterFunctional(t *testing.T) {
	for name, im := range calloutImages(t) {
		for _, n := range [][2]uint64{{37, 23}, {5, 3}, {11, 1}} {
			drive := func(c *cpu.CPU) error {
				for {
					if halted, err := c.RunFunctionalFor(n[0]); err != nil || halted {
						return err
					}
					if halted, err := c.RunDetailedFor(n[1]); err != nil || halted {
						return err
					}
				}
			}
			want, err := reference(t, im, calloutConfig(), drive)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			got, err := ledgers(t, im, calloutConfig(), nil, drive)
			if err != nil {
				t.Fatalf("%s: run: %v", name, err)
			}
			sameObservation(t, fmt.Sprintf("%s/%d+%d", name, n[0], n[1]), got, want)
		}
	}
}
