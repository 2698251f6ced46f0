package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	rtd "repro"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/experiment"
	"repro/internal/fastpath"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// The traced pass measures layers, not users: it runs the workload's
// first program in-process through the same public functions the CLIs
// call, timing each call as a span and profiling each mode's run with
// runtime/pprof. It runs after the timed loop, so its overhead never
// touches an end-to-end metric.

const (
	// anchorCommits caps the instruction stream the per-op anchors
	// replay.
	anchorCommits = 1 << 22
	// anchorOps is the least number of operations one mem or isa anchor
	// pass times (at full scale), so a pass lasts milliseconds, not
	// microseconds.
	anchorOps = 1 << 20
	// passes is how many times each anchor replays its stream; the
	// fastest pass is reported.
	passes = 5
)

// layerSet collects per-layer metrics.
type layerSet map[string]summary

func (l layerSet) once(name, unit string, v float64) {
	l[name] = summary{Value: v, Unit: unit, Stat: "once", Median: v, Q1: v, Q3: v, N: 1}
}

func (l layerSet) best(name, unit string, xs []float64) {
	l[name] = summarize(xs, unit, "best", true)
}

// tracedPass records the per-layer metrics of one workload.
func (e *env) tracedPass(st *runState) {
	res := st.res
	pr := st.progs[0]
	lay := layerSet{}
	res.PerLayer = lay
	span := spanFunc(func(name string, fn func() error) (float64, error) { return e.tr.do(st.w.Name, name, fn) })
	failed := func(what string, err error) bool {
		if err != nil {
			res.op(fmt.Sprintf("traced %s: %v", what, err))
			return true
		}
		res.op()
		return false
	}

	// Model-side figures the timed loop checked.
	if pr.exact != nil {
		lay.once("sim.cpi", "cycles/instr", pr.exact.CPI)
	}
	lay.once("sampled.err_pct", "%", st.driftPct)
	lay.once("paper.dict_err", "slowdown", st.dictErr)

	// Set-up, split into its layers.
	var images, saves []float64
	for i := 0; i < passes; i++ {
		var image, save float64
		_, err := span("setup", func() (err error) {
			image, save, err = st.build(pr, span)
			return err
		})
		if failed("set-up", err) {
			return
		}
		images = append(images, image)
		saves = append(saves, save)
	}
	lay.best("setup.image_s", "s", images)
	lay.best("program.save_s", "s", saves)
	if pr.exact == nil {
		res.op("traced pass: no exact run to check against")
		return
	}

	cfg := rtd.DefaultMachine()
	cfg.MaxInstr = 2_000_000_000
	var im *rtd.Image
	var loads []float64
	var err error
	for i := 0; i < passes && err == nil; i++ {
		var d float64
		d, err = span("program.load", func() (err error) {
			im, err = program.LoadFile(pr.img)
			return err
		})
		loads = append(loads, d)
	}
	if failed("load", err) {
		return
	}
	lay.best("program.load_s", "s", loads)
	// load builds a machine holding the image, its program output going
	// to out.
	var cpuLoads []float64
	load := func(out io.Writer) (*cpu.CPU, error) {
		var c *cpu.CPU
		d, err := span("cpu.load", func() (err error) {
			if c, err = cpu.New(cfg); err != nil {
				return err
			}
			c.Out = out
			return c.Load(im)
		})
		cpuLoads = append(cpuLoads, d)
		return c, err
	}
	minProfiled := time.Duration(float64(2*time.Second) * st.p.ScaleMul)
	want := *pr.exact
	want.CPI = 0

	// exact
	var runs []float64
	var last *cpu.CPU
	var before, after runtime.MemStats
	err = e.profiled(st, lay, "exact", minProfiled, func(p *profiler) error {
		var out bytes.Buffer
		c, err := load(&out)
		if err != nil {
			return err
		}
		err = p.run(func() error {
			runtime.ReadMemStats(&before)
			d, err := span("cpu.run", func() error { _, err := c.Run(); return err })
			runtime.ReadMemStats(&after)
			runs = append(runs, d)
			return err
		})
		if err != nil {
			return err
		}
		last = c
		got := statsReport(c.Stats)
		got.CPI = 0
		if got != want {
			return fmt.Errorf("in-process stats %+v differ from the CLI's %+v", got, want)
		}
		return sameOutput(out.String(), pr.ref)
	})
	if failed("exact", err) {
		return
	}
	lay.best("cpu.run_s", "s", runs)
	s := last.Stats
	work := float64(s.Instrs + s.HandlerInstrs)
	lay.once("cpu.ns_per_instr", "ns", lay["cpu.run_s"].Value*1e9/work)
	lay.once("cpu.instrs", "count", float64(s.Instrs))
	lay.once("cpu.handler_instrs", "count", float64(s.HandlerInstrs))
	lay.once("handler.exceptions", "count", float64(s.Exceptions))
	lay.once("handler.instrs_per_exception", "count", ratio(float64(s.HandlerInstrs), float64(s.Exceptions)))
	lay.once("icache.accesses", "count", float64(last.IC.Stats.Accesses))
	lay.once("icache.misses", "count", float64(last.IC.Stats.Misses))
	lay.once("icache.swic_lines", "count", float64(last.IC.Stats.SwicLines))
	lay.once("dcache.accesses", "count", float64(last.DC.Stats.Accesses))
	lay.once("dcache.misses", "count", float64(last.DC.Stats.Misses))
	lay.once("bpred.lookups", "count", float64(last.BP.Lookups))
	lay.once("bpred.mispredict_pct", "%", 100*ratio(float64(last.BP.Mispredicts), float64(last.BP.Lookups)))
	lay.once("bus.reads", "count", float64(last.Mem.Reads))
	lay.once("bus.bytes", "B", float64(last.Mem.BytesRead))
	kinstr := work / 1000
	lay.once("runtime.allocs_per_kinstr", "count", float64(after.Mallocs-before.Mallocs)/kinstr)
	lay.once("runtime.alloc_bytes_per_kinstr", "B", float64(after.TotalAlloc-before.TotalAlloc)/kinstr)

	// Tracing overhead: as many exact runs again, with no profiler and
	// no spans, so both sides' best is taken over as many runs.
	var plain []float64
	for range runs {
		c, err := cpu.New(cfg)
		if err == nil {
			c.Out = io.Discard
			err = c.Load(pr.image)
		}
		start := time.Now()
		if err == nil {
			_, err = c.Run()
		}
		if failed("untraced exact", err) {
			return
		}
		plain = append(plain, time.Since(start).Seconds())
	}
	lay.once("trace.overhead_pct", "%", 100*(lay["cpu.run_s"].Value/bestOf(plain, true)-1))

	// funct
	runs = nil
	err = e.profiled(st, lay, "funct", minProfiled, func(p *profiler) error {
		var out bytes.Buffer
		c, err := load(&out)
		if err != nil {
			return err
		}
		err = p.run(func() error {
			d, err := span("fastpath.functional", func() error { _, err := fastpath.Functional(c); return err })
			runs = append(runs, d)
			return err
		})
		if err != nil {
			return err
		}
		if c.FStats.Instrs != want.Instrs {
			return fmt.Errorf("%d user instructions; exact ran %d", c.FStats.Instrs, want.Instrs)
		}
		return sameOutput(out.String(), pr.ref)
	})
	if failed("funct", err) {
		return
	}
	lay.best("fastpath.functional_s", "s", runs)

	// sampled
	runs = nil
	var sres *fastpath.SampleResult
	err = e.profiled(st, lay, "sampled", minProfiled, func(p *profiler) error {
		var out bytes.Buffer
		c, err := load(&out)
		if err != nil {
			return err
		}
		err = p.run(func() error {
			d, err := span("fastpath.sampled", func() (err error) {
				sres, err = fastpath.Sampled(c, fastpath.DefaultSampleConfig())
				return err
			})
			runs = append(runs, d)
			return err
		})
		if err != nil {
			return err
		}
		if sres.TotalInstrs != want.Instrs {
			return fmt.Errorf("%d user instructions; exact ran %d", sres.TotalInstrs, want.Instrs)
		}
		return sameOutput(out.String(), pr.ref)
	})
	if failed("sampled", err) {
		return
	}
	lay.best("fastpath.sampled_s", "s", runs)
	lay.once("fastpath.sampled.detailed_pct", "%", 100*ratio(float64(sres.DetailedInstrs), float64(sres.TotalInstrs)))
	lay.once("fastpath.sampled.bursts", "count", float64(sres.Bursts))

	// observed: the collector and window sampler ccprof attaches.
	runs = nil
	err = e.profiled(st, lay, "observed", minProfiled, func(p *profiler) error {
		var r rtd.RunResult
		err := p.run(func() error {
			d, err := span("observe.windowed_run", func() (err error) {
				r, _, _, err = rtd.WindowedRun(im, cfg, 0)
				return err
			})
			runs = append(runs, d)
			return err
		})
		if err != nil {
			return err
		}
		got := statsReport(r.Stats)
		got.CPI = 0
		if got != want {
			return fmt.Errorf("windowed stats %+v differ from the CLI's %+v", got, want)
		}
		return sameOutput(r.Output, pr.ref)
	})
	if failed("observed", err) {
		return
	}
	lay.best("observe.windowed_run_s", "s", runs)
	lay.best("cpu.load_s", "s", cpuLoads)

	failed("experiment", e.experimentSpans(st, lay))
	failed("anchors", anchors(pr, cfg, st.p.ScaleMul, lay))
}

// profiler profiles one mode. Only samples taken inside calls passed
// to run count towards the host-time stack, so loading and checking
// around them stay out of it.
type profiler struct {
	busy time.Duration
}

// markedRun is the frame that marks a sample as part of a profiled
// call.
//
//go:noinline
func markedRun(fn func() error) error { return fn() }

var markedRunName = runtime.FuncForPC(reflect.ValueOf(markedRun).Pointer()).Name()

func (p *profiler) run(fn func() error) error {
	start := time.Now()
	err := markedRun(fn)
	p.busy += time.Since(start)
	return err
}

// profiled repeats body under the CPU profiler until its profiled calls
// have run for at least min, then records mode's host-time stack and,
// with -out, writes the profile as <workload>.<mode>.pprof.
func (e *env) profiled(st *runState, lay layerSet, mode string, min time.Duration, body func(*profiler) error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return err
	}
	p := &profiler{}
	var err error
	for first := true; err == nil && (first || p.busy < min); first = false {
		err = body(p)
	}
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if e.out != "" {
		path := filepath.Join(e.out, st.w.Name+"."+mode+".pprof")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	prof, err := readProfile(buf.Bytes(), markedRunName)
	if err != nil {
		return err
	}
	shares := layerShares(prof)
	for _, l := range hostLayers {
		lay.once(mode+".host."+l+"_pct", "%", shares[l])
	}
	if shares["other"] > maxOtherPct && prof.Total >= minStackSamples {
		return fmt.Errorf("%s host stack: %.1f%% of samples map to no layer (limit %d%%): %s",
			mode, shares["other"], maxOtherPct, strings.Join(topOther(prof, 5), ", "))
	}
	return nil
}

// experimentSpans times the paper-reproduction producers the
// reproduce CLI runs, on the same program and scale, and checks the
// comparison they render matches the CLI's.
func (e *env) experimentSpans(st *runState, lay layerSet) error {
	s := experiment.NewSuite(reproduceScale * st.p.ScaleMul)
	s.Only = []string{st.w.Bench}
	s.Workers = 1
	var compare string
	steps := []struct {
		name string
		fn   func() error
	}{
		{"experiment.table2", func() error { _, err := s.Table2(); return err }},
		{"experiment.table3", func() error { _, err := s.Table3(); return err }},
		{"experiment.figure4", func() error {
			if _, err := s.Figure4(program.SchemeDict); err != nil {
				return err
			}
			_, err := s.Figure4(program.SchemeCodePack)
			return err
		}},
		{"experiment.figure5", func() error { _, err := s.Figure5(); return err }},
		{"experiment.compare", func() (err error) { compare, err = s.Compare(); return err }},
	}
	_, err := e.tr.do(st.w.Name, "experiment", func() error {
		for _, step := range steps {
			d, err := e.tr.do(st.w.Name, step.name, step.fn)
			if err != nil {
				return err
			}
			lay.once(step.name+"_s", "s", d)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !strings.Contains(string(st.reproOut), compare) {
		return fmt.Errorf("in-process comparison differs from the experiments CLI's")
	}
	return nil
}

// branch is one resolved conditional branch.
type branch struct {
	pc    uint32
	taken bool
}

// anchorSink keeps the decoder anchor's result live.
var anchorSink int

// anchors measures per-operation costs of the leaf layers by replaying
// streams captured from the workload: fetch addresses into a fresh
// I-cache, resolved branches into a fresh predictor, every text line
// through the bus, and every text word through the decoder.
func anchors(pr *prog, cfg rtd.MachineConfig, scaleMul float64, lay layerSet) error {
	cfg.MaxInstr = anchorCommits
	c, err := cpu.New(cfg)
	if err != nil {
		return err
	}
	c.Out = io.Discard
	if err := c.Load(pr.image); err != nil {
		return err
	}
	var pcs []uint32
	var brs []branch
	c.AttachTrace(func(pc, _ uint32, handler bool) {
		if !handler {
			pcs = append(pcs, pc)
		}
	})
	c.BP.OnResolve = func(pc uint32, taken, _ bool) { brs = append(brs, branch{pc, taken}) }
	if _, err := c.Run(); err != nil && c.Stats.Instrs+c.Stats.HandlerInstrs < anchorCommits {
		return err
	}

	line := make([]byte, cfg.ICache.LineBytes)
	lay.once("cache.access_ns", "ns", nsPerOp(len(pcs), func() {
		ic := cache.MustNew(cfg.ICache, true)
		for _, pc := range pcs {
			if !ic.Access(pc) {
				ic.Fill(pc, line)
			}
		}
	}))
	lay.once("bpred.update_ns", "ns", nsPerOp(len(brs), func() {
		p := bpred.New(cfg.PredictorEntries)
		for _, b := range brs {
			p.Update(b.pc, b.taken)
		}
	}))

	text := pr.native.Segment(program.SegText)
	if text == nil || len(text.Data) < len(line) {
		return fmt.Errorf("native image has no text segment")
	}
	m := mem.New(cfg.Bus)
	m.LoadSegment(text)
	minOps := max(1, int(anchorOps*scaleMul))
	nLines := len(text.Data) / len(line)
	rounds := (minOps + nLines - 1) / nLines
	lay.once("mem.read_block_ns", "ns", nsPerOp(rounds*nLines, func() {
		for r := 0; r < rounds; r++ {
			for a := text.Base; a+uint32(len(line)) <= text.End(); a += uint32(len(line)) {
				m.ReadBlock(a, line)
			}
		}
	}))
	words := make([]isa.Word, len(text.Data)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(text.Data[4*i:])
	}
	rounds = (minOps + len(words) - 1) / len(words)
	lay.once("isa.spec_ns", "ns", nsPerOp(rounds*len(words), func() {
		n := 0
		for r := 0; r < rounds; r++ {
			for _, w := range words {
				if isa.SpecOf(w) != nil {
					n++
				}
			}
		}
		anchorSink = n
	}))
	return nil
}

// nsPerOp times passes replays of a stream of ops operations and
// returns the fastest pass's nanoseconds per operation.
func nsPerOp(ops int, pass func()) float64 {
	if ops == 0 {
		return 0
	}
	best := math.Inf(1)
	for i := 0; i < passes; i++ {
		start := time.Now()
		pass()
		best = math.Min(best, float64(time.Since(start).Nanoseconds()))
	}
	return best / float64(ops)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sameOutput(got, want string) error {
	if got != want {
		return fmt.Errorf("program output differs from the native reference run")
	}
	return nil
}
