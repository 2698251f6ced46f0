package profile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/decomp"
	"repro/internal/program"
)

// The ledger's bit-identity battery. The ledger charges one Stats delta
// per run of commits that share an attribution key; refRecorder charges
// a full delta on every commit, the straightforward definition the
// run-length ledger must reproduce exactly. Both observe the same run,
// and their Profile JSON and window records must match byte for byte.

// refRecorder is the per-commit reference: every commit's whole Stats +
// bus delta goes to the line and procedure of its charged address (the
// PC, or the EPC inside the handler), and each window axis is rolled
// from snapshots every size commits.
type refRecorder struct {
	c         *cpu.CPU
	im        *program.Image
	lineBytes uint32
	lines     map[uint32]*Cost
	procs     []Cost
	prev      Cost
	committed uint64
	axes      []refWindows
	straddles int // windows closed strictly inside a handler activation
}

type refWindows struct {
	size    uint64
	rolled  int
	records []Window
	prev    Cost // snapshot at the last roll
}

func newRef(im *program.Image, sizes []uint64) *refRecorder {
	r := &refRecorder{im: im, lines: map[uint32]*Cost{}, procs: make([]Cost, len(im.Procs)+1)}
	for _, size := range sizes {
		r.axes = append(r.axes, refWindows{size: size})
	}
	return r
}

func (r *refRecorder) attach(c *cpu.CPU) {
	r.c = c
	r.lineBytes = uint32(c.Cfg.ICache.LineBytes)
	c.AttachTrace(func(pc, instr uint32, handler bool) { r.commit(pc, handler) })
}

func snapshot(c *cpu.CPU) Cost {
	s := c.Stats
	return Cost{
		Cycles: s.Cycles, Instrs: s.Instrs, HandlerInstrs: s.HandlerInstrs,
		IMissNative: s.IMissNative, IMissCompressed: s.IMissCompressed, Exceptions: s.Exceptions,
		FetchStalls: s.FetchStalls, LoadStalls: s.LoadStalls, LoadUseStalls: s.LoadUseStalls,
		ExcCyclesTotal: s.ExcCyclesTotal, ExcCyclesMax: s.ExcCyclesMax, CPIStack: s.CPIStack,
		BusReads: c.Mem.Reads, BusBytes: c.Mem.BytesRead,
	}
}

// minus returns the counter deltas a-b; ExcCyclesMax is left to the caller.
func minus(a, b Cost) Cost {
	d := Cost{
		Cycles: a.Cycles - b.Cycles, Instrs: a.Instrs - b.Instrs, HandlerInstrs: a.HandlerInstrs - b.HandlerInstrs,
		IMissNative: a.IMissNative - b.IMissNative, IMissCompressed: a.IMissCompressed - b.IMissCompressed,
		Exceptions: a.Exceptions - b.Exceptions, FetchStalls: a.FetchStalls - b.FetchStalls,
		LoadStalls: a.LoadStalls - b.LoadStalls, LoadUseStalls: a.LoadUseStalls - b.LoadUseStalls,
		ExcCyclesTotal: a.ExcCyclesTotal - b.ExcCyclesTotal,
		BusReads:       a.BusReads - b.BusReads, BusBytes: a.BusBytes - b.BusBytes,
	}
	for k := range d.CPIStack {
		d.CPIStack[k] = a.CPIStack[k] - b.CPIStack[k]
	}
	return d
}

func (r *refRecorder) commit(pc uint32, handler bool) {
	target := pc
	if handler {
		target = r.c.C0(4)
	}
	now := snapshot(r.c)
	d := minus(now, r.prev)
	d.ExcCyclesMax = d.ExcCyclesTotal
	la := target &^ (r.lineBytes - 1)
	if r.lines[la] == nil {
		r.lines[la] = new(Cost)
	}
	r.lines[la].Add(d)
	procs := r.im.Procs
	i := sort.Search(len(procs), func(i int) bool { return procs[i].Addr+procs[i].Size > target })
	if i == len(procs) || !procs[i].Contains(target) {
		i = len(procs)
	}
	r.procs[i].Add(d)
	r.prev = now
	r.committed++
	for a := range r.axes {
		if r.committed%r.axes[a].size == 0 {
			if handler && r.c.InHandler() {
				r.straddles++
			}
			r.axes[a].roll(now)
		}
	}
}

func (w *refWindows) roll(now Cost) {
	rec := Window{
		Index:      w.rolled,
		StartInstr: w.prev.Instrs + w.prev.HandlerInstrs, EndInstr: now.Instrs + now.HandlerInstrs,
		StartCycle: w.prev.Cycles, EndCycle: now.Cycles,
		Cost: minus(now, w.prev),
	}
	rec.ExcCyclesMax = now.ExcCyclesMax
	w.records = append(w.records, rec)
	w.rolled++
	w.prev = now
}

// finish closes each axis's final partial window.
func (r *refRecorder) finish() {
	for a := range r.axes {
		if w := &r.axes[a]; r.committed > uint64(w.rolled)*w.size {
			w.roll(snapshot(r.c))
		}
	}
}

func (r *refRecorder) profile() *Profile {
	p := &Profile{SchemaVersion: ArtifactSchema, LineBytes: int(r.lineBytes), Total: snapshot(r.c)}
	var addrs []uint32
	for a := range r.lines {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		p.Lines = append(p.Lines, LineCost{Addr: a, Cost: *r.lines[a]})
	}
	for i, pr := range r.im.Procs {
		p.Procs = append(p.Procs, ProcCost{Name: pr.Name, Addr: pr.Addr, Cost: r.procs[i]})
	}
	if out := r.procs[len(r.im.Procs)]; !out.IsZero() {
		p.Procs = append(p.Procs, ProcCost{Name: OutsideName, Cost: out})
	}
	return p
}

// TestLedgerMatchesPerCommitReference is the grid: the testdata corpus ×
// native and every registered codec × shadow register file off/on × the
// default I-cache, a 128 B direct-mapped churn cache and hardware
// decompression × window sizes 1, 7 and 8192. On every run a full
// ledger (lines, procedures and windows, as ccprof keys it) and a
// windows-only ledger (as rtd.WindowedRun keys it) must reproduce the
// reference byte for byte.
func TestLedgerMatchesPerCommitReference(t *testing.T) {
	caches := []struct {
		name           string
		mod            func(*cpu.Config)
		compressedOnly bool
	}{
		{"16k", func(*cpu.Config) {}, false},
		{"128b-dm", func(c *cpu.Config) { c.ICache = cache.Config{SizeBytes: 128, LineBytes: 32, Ways: 1} }, false},
		{"hw", func(c *cpu.Config) { c.HardwareDecompress = true }, true},
	}
	sizes := []uint64{1, 7, 8192}
	straddles := 0
	for _, ex := range corpus(t) {
		for _, scheme := range append([]string{"native"}, codec.Names()...) {
			for _, rf := range []bool{false, true} {
				if scheme == "native" && rf {
					continue
				}
				im := ex.im
				if scheme != "native" {
					res, err := core.Compress(im, core.Options{Scheme: program.Scheme(scheme), ShadowRF: rf})
					if err != nil {
						t.Fatalf("%s/%s: compress: %v", ex.name, scheme, err)
					}
					im = res.Image
				}
				for _, cc := range caches {
					if cc.compressedOnly && scheme == "native" {
						continue
					}
					name := fmt.Sprintf("%s/%s/rf=%v/%s", ex.name, scheme, rf, cc.name)
					err := compareWithReference(t, name, im, cc.mod, sizes, &straddles)
					// The block codecs install several lines per miss, more
					// than the 4-line churn cache holds: the machine refuses
					// the run before any comparison is possible.
					if err != nil && !(cc.name == "128b-dm" && strings.Contains(err.Error(), "repeated exception")) {
						t.Errorf("%s: run: %v", name, err)
					}
				}
			}
		}
	}
	if straddles == 0 {
		t.Error("no window boundary landed inside a handler activation; the straddle case is vacuous")
	}
}

// compareWithReference runs im once with, per window size, a full
// ledger and a windows-only ledger attached beside the reference, and
// compares them; it adds the reference's mid-handler window closes to
// straddles. A run the machine refuses returns its error.
//
// Window records are compared as they close and drained down to the
// last one, which the ledgers continue from, so a w=1 axis over a
// million-commit churn run needs no more memory than w=8192. An axis
// that never fills a batch keeps every record and must pass Verify; a
// drained axis is checked record by record against the reference
// instead.
func compareWithReference(t *testing.T, name string, im *program.Image, mod func(*cpu.Config), sizes []uint64, straddles *int) error {
	t.Helper()
	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 20_000_000
	mod(&cfg)
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type observers struct {
		rec       *Recorder
		only      *Ledger
		full, win *Windows
		drained   bool
		differs   string // the first ledger whose windows differ
	}
	obs := make([]observers, len(sizes))
	for i, size := range sizes {
		o := observers{rec: NewRecorder(im), only: NewLedger(nil), full: &Windows{Size: size}, win: &Windows{Size: size}}
		o.rec.Sample(o.full)
		o.rec.Attach(c)
		o.only.Sample(o.win)
		o.only.Attach(c)
		obs[i] = o
	}
	ref := newRef(im, sizes)
	ref.attach(c)
	// compare checks axis i's records against the reference's, then
	// drops all but the last keep of them from all three.
	compare := func(i, keep int) {
		o, want := &obs[i], &ref.axes[i].records
		for _, got := range []struct {
			name string
			w    *Windows
		}{{"full", o.full}, {"windows-only", o.win}} {
			if o.differs == "" && !slices.Equal(got.w.Records, *want) {
				o.differs = got.name
			}
			got.w.Records = append(got.w.Records[:0], got.w.Records[max(len(got.w.Records)-keep, 0):]...)
		}
		*want = append((*want)[:0], (*want)[max(len(*want)-keep, 0):]...)
	}
	const batch = 1024
	c.AttachTrace(func(pc, instr uint32, handler bool) {
		for i := range obs {
			if len(ref.axes[i].records) >= batch {
				compare(i, 1)
				obs[i].drained = true
			}
		}
	})
	if err := c.Load(im); err != nil {
		t.Fatalf("%s: load: %v", name, err)
	}
	if _, err := c.Run(); err != nil {
		return err
	}
	ref.finish()
	var want bytes.Buffer
	if err := ref.profile().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	for i := range obs {
		o := &obs[i]
		if o.drained {
			o.rec.Settle()
			o.only.Settle()
		} else if err := o.rec.Verify(); err != nil {
			t.Errorf("%s/w=%d: %v", name, sizes[i], err)
		} else if err := o.only.Verify(); err != nil {
			t.Errorf("%s/w=%d: windows-only ledger: %v", name, sizes[i], err)
		}
		var got bytes.Buffer
		if err := o.rec.Profile().WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s/w=%d: ledger profile differs from the per-commit reference", name, sizes[i])
		}
		// Window holds value fields only, so equal records serialize to
		// equal bytes.
		compare(i, 0)
		if o.differs != "" {
			t.Errorf("%s/w=%d: %s ledger windows differ from the per-commit reference", name, sizes[i], o.differs)
		}
	}
	*straddles += ref.straddles
	return nil
}

// TestBackToBackActivationsStayExact covers the one case where the
// handler/user phase in the ledger's key decides the result: two
// service intervals of the same line with no user commit between them.
// The handler below is the copy decompressor plus, on its first
// activation only (a flag kept in the shadow register file), a fill of
// the line 128 bytes on, which shares the missed line's set in a 4-set
// direct-mapped cache and evicts it; the resumed fetch misses again
// at once. Without the phase, both irets would close in one run whose
// ExcCyclesTotal delta is the sum of two latencies, and the max-merge
// would overstate ExcCyclesMax.
func TestBackToBackActivationsStayExact(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sort.s"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(assemble(t, string(src)), core.Options{Scheme: "copy", ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	im := res.Image
	stock, err := decomp.Source(decomp.Variant{Scheme: "copy", ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	evict := `        bne   $s7, $zero, done
        ori   $s7, $zero, 1
        addiu $k1, $k1, 96       # k1 = missed line + 128
        addiu $t1, $t1, 96
        addiu $t2, $k1, 32
eloop:  lw    $t3, 0($t1)
        swic  $t3, 0($k1)
        addiu $t1, $t1, 4
        addiu $k1, $k1, 4
        bne   $k1, $t2, eloop
done:   iret
`
	handler, err := decomp.BuildSource("copy-evict", strings.Replace(stock, "        iret\n", evict, 1))
	if err != nil {
		t.Fatal(err)
	}
	im.Segment(program.SegDecompressor).Data = handler.Data

	cfg := cpu.DefaultConfig()
	cfg.MaxInstr = 20_000_000
	cfg.ICache = cache.Config{SizeBytes: 128, LineBytes: 32, Ways: 1}
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(im)
	rec.Attach(c)
	ref := newRef(im, nil)
	ref.attach(c)
	backToBack, iretDone := 0, false
	c.AttachTrace(func(pc, instr uint32, handler bool) {
		if iretDone && handler {
			backToBack++
		}
		iretDone = handler && !c.InHandler()
	})
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if backToBack == 0 {
		t.Fatal("no handler activation followed another directly; the case is vacuous")
	}
	if err := rec.Verify(); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := rec.Profile().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.profile().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("ledger profile differs from the per-commit reference")
	}
}
