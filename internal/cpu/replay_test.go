package cpu_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/asm"
	_ "repro/internal/codec/all"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/decomp"
	"repro/internal/fastpath"
	"repro/internal/program"
	"repro/internal/synth"
)

// Handler-activation replay must be invisible: a run that replays
// recorded activations and a ReplayCheck run, which interprets every
// activation and checks it against its recording, must leave the same
// machine behind, down to the checkpoint bytes.

// replayRun is what one run leaves observable.
type replayRun struct {
	err     string
	exit    int32
	out     string
	replays uint64
	ck      []byte // checkpoint: core state (both banks, Stats, FStats), memory and bus counters, caches, predictor
}

func runReplay(t *testing.T, im *program.Image, cfg cpu.Config, check bool) replayRun {
	t.Helper()
	cfg.ReplayCheck = check
	c, err := cpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c.Out = &out
	if err := c.Load(im); err != nil {
		t.Fatal(err)
	}
	r := replayRun{out: ""}
	r.exit, err = c.Run()
	if err != nil {
		r.err = err.Error()
	}
	r.out, r.replays = out.String(), c.Work().Replays
	ck := fastpath.Capture(c, nil)
	ck.Config.ReplayCheck = false
	if r.ck, err = json.Marshal(ck); err != nil {
		t.Fatal(err)
	}
	return r
}

// compareReplay runs im both ways and fails unless they agree; it
// returns the replaying run.
func compareReplay(t *testing.T, label string, im *program.Image, cfg cpu.Config) replayRun {
	t.Helper()
	got, want := runReplay(t, im, cfg, false), runReplay(t, im, cfg, true)
	if want.err != "" && strings.Contains(want.err, "replay check") {
		t.Fatalf("%s: %s", label, want.err)
	}
	if got.err != want.err || got.exit != want.exit || got.out != want.out {
		t.Errorf("%s: replayed run ended %q/%d/%q, interpreted %q/%d/%q",
			label, got.err, got.exit, got.out, want.err, want.exit, want.out)
	}
	if !bytes.Equal(got.ck, want.ck) {
		t.Errorf("%s: replayed and interpreted machines differ (%s)", label, firstDiff(got.ck, want.ck))
	}
	return got
}

func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("checkpoint byte %d: ...%s", i, a[lo:min(len(a), i+40)])
}

type replayImage struct {
	name  string
	im    *program.Image
	small bool // re-faults only in a small I-cache
}

func replayPrograms(t *testing.T) []replayImage {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.s"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	var progs []replayImage
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		im, err := asm.Assemble(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		progs = append(progs, replayImage{strings.TrimSuffix(filepath.Base(p), ".s"), im, true})
	}
	for _, b := range synth.Benchmarks() {
		im, err := synth.Build(b.Scale(0.02))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		progs = append(progs, replayImage{b.Name, im, false})
	}
	return progs
}

func TestReplayMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every program under every handler twice")
	}
	type handler struct {
		name string
		opts core.Options
	}
	var handlers []handler
	for _, v := range decomp.Variants() {
		handlers = append(handlers, handler{v.String(), core.Options{Scheme: v.Scheme, ShadowRF: v.ShadowRF, IndexBits: v.IndexBits}})
	}
	handlers = append(handlers,
		handler{"lz", core.Options{Scheme: "lz"}},
		handler{"lz+RF", core.Options{Scheme: "lz", ShadowRF: true}})
	replays := map[string]uint64{}
	for _, p := range replayPrograms(t) {
		for _, h := range handlers {
			res, err := core.Compress(p.im, h.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, h.name, err)
			}
			cfg := cpu.DefaultConfig()
			cfg.MaxInstr = 200_000_000
			if p.small {
				cfg.ICache.SizeBytes = 1 << 10
			}
			replays[h.name] += compareReplay(t, p.name+" "+h.name, res.Image, cfg).replays
		}
	}
	t.Logf("replays by handler: %v", replays)
	for _, h := range []string{"dict+RF", "codepack+RF"} {
		if replays[h] == 0 {
			t.Errorf("%s never replayed an activation", h)
		}
	}
	for _, h := range []string{"dict", "dict8", "codepack", "procdict", "lz", "lz+RF"} {
		if replays[h] != 0 {
			t.Errorf("%s replayed %d activations; its handler stores, so it must be interpreted", h, replays[h])
		}
	}
}

// copyRF compresses src with the copy handler, whose table is a plain
// copy of the text at $c0_dict, under the shadow register file.
func copyRF(t *testing.T, src string) *program.Image {
	t.Helper()
	native, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(native, core.Options{Scheme: "copy", ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Image
}

// hostileSource loops ten rounds, each calling f (which returns 1)
// and a filler procedure larger than a 1 KB I-cache, so every call of
// f re-faults its line. After round 3 it adds one to the immediate of
// f's first instruction in the handler's own table; after round 6 it
// copies the table into .data, adds one there too and points $c0_dict
// at the copy. f returns 1, 2 and then 3: the program prints 21, and a
// replay of a recording made before either change would print less.
func hostileSource() string {
	return `
        .data
buf:    .space 16384
        .text
        .proc main
main:   move  $s0, $zero
        move  $s1, $zero
round:  jal   f
        addu  $s0, $s0, $v0
        jal   filler
        addiu $s1, $s1, 1
        ori   $t0, $zero, 3
        bne   $s1, $t0, skipA
        mfc0  $t1, $c0_dict
        mfc0  $t2, $c0_dbase
        la    $t3, f
        subu  $t3, $t3, $t2
        addu  $t3, $t3, $t1
        lw    $t4, 0($t3)
        addiu $t4, $t4, 1
        sw    $t4, 0($t3)
skipA:  ori   $t0, $zero, 6
        bne   $s1, $t0, skipB
        mfc0  $t1, $c0_dict
        mfc0  $t2, $c0_dbase
        la    $t3, textend
        subu  $t3, $t3, $t2
        la    $t5, buf
        move  $t6, $zero
copy:   addu  $t7, $t1, $t6
        lw    $t8, 0($t7)
        addu  $t7, $t5, $t6
        sw    $t8, 0($t7)
        addiu $t6, $t6, 4
        bne   $t6, $t3, copy
        la    $t3, f
        subu  $t3, $t3, $t2
        addu  $t3, $t3, $t5
        lw    $t4, 0($t3)
        addiu $t4, $t4, 1
        sw    $t4, 0($t3)
        mtc0  $t5, $c0_dict
skipB:  ori   $t0, $zero, 10
        bne   $s1, $t0, round
        move  $a0, $s0
        ori   $v0, $zero, 1
        syscall
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc f
f:      addiu $v0, $zero, 1
        jr    $ra
        .endp
        .proc filler
filler:
` + strings.Repeat("        addiu $t9, $t9, 1\n", 400) + `        jr    $ra
        .endp
        .proc tail
textend: jr   $ra
        .endp
`
}

// TestReplayHostilePrograms stores into the handler's table between
// misses and moves a handler input register with a user mtc0: replay
// must follow both, and must still replay the activations neither
// touches.
func TestReplayHostilePrograms(t *testing.T) {
	im := copyRF(t, hostileSource())
	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = 1 << 10
	got := compareReplay(t, "hostile", im, cfg)
	if got.err != "" || got.out != "21" {
		t.Fatalf("hostile program ended %q printing %q, want 21", got.err, got.out)
	}
	if got.replays == 0 {
		t.Error("no activation replayed: the test shows nothing")
	}
}

// TestReplayBudgetMidActivation ends the instruction budget at every
// point of a stretch of replayed activations: the budget error, the
// PC and the machine must be those of the interpreted run.
func TestReplayBudgetMidActivation(t *testing.T) {
	im := copyRF(t, hostileSource())
	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = 1 << 10
	full := runReplay(t, im, cfg, false)
	if full.replays == 0 {
		t.Fatal("no activation replayed")
	}
	for b := uint64(6000); b < 6200; b++ {
		cfg.MaxInstr = b
		got := compareReplay(t, fmt.Sprintf("budget %d", b), im, cfg)
		if !strings.Contains(got.err, "budget") {
			t.Fatalf("budget %d: run ended %q, want a budget error", b, got.err)
		}
	}
}

// TestReplayBreakIsCaught is the comparison's negative control: a
// replay that skips one D-cache event per activation must leave a
// machine the interpreted run does not.
func TestReplayBreakIsCaught(t *testing.T) {
	im := copyRF(t, hostileSource())
	cfg := cpu.DefaultConfig()
	cfg.ICache.SizeBytes = 1 << 10
	cfg.ReplayBreak = true
	got, want := runReplay(t, im, cfg, false), runReplay(t, im, cfg, true)
	if got.replays == 0 || bytes.Equal(got.ck, want.ck) {
		t.Fatalf("ReplayBreak left the replayed machine equal to the interpreted one (%d replays)", got.replays)
	}
}

// TestReplayStreamFaultsAreCaught plants a fault in each compiled
// stream in turn (a predictor Transfer, a load run's count, a kept
// predecoded record) once recordings are compiled, and finishes the
// run: each must leave a machine the interpreted run does not.
func TestReplayStreamFaultsAreCaught(t *testing.T) {
	native, err := asm.Assemble(`
        .text
        .proc main
main:   move  $s1, $zero
round:  jal   filler
        addiu $s1, $s1, 1
        ori   $t0, $zero, 10
        bne   $s1, $t0, round
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc filler
filler:
` + strings.Repeat("        addiu $t9, $t9, 1\n", 400) + `        jr    $ra
        .endp
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(native, core.Options{Scheme: "codepack", ShadowRF: true})
	if err != nil {
		t.Fatal(err)
	}
	run := func(stream string, check bool) replayRun {
		cfg := cpu.DefaultConfig()
		cfg.ICache.SizeBytes = 1 << 10
		cfg.ReplayCheck = check
		c, err := cpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(res.Image); err != nil {
			t.Fatal(err)
		}
		// Run in budgeted steps until the first replays compiled their
		// recordings (the same steps under ReplayCheck), then plant the
		// fault and run to the end.
		for budget := uint64(500); c.Work().Replays < 5; budget += 500 {
			c.Cfg.MaxInstr = budget
			if _, err := c.Run(); err == nil || !strings.Contains(err.Error(), "budget") {
				t.Fatalf("%s: run ended before any replay: %v", stream, err)
			}
		}
		if !check && stream != "" && cpu.CorruptReplay(c, stream) == 0 {
			t.Fatalf("no compiled recording has a %s stream to corrupt", stream)
		}
		c.Cfg.MaxInstr = 0
		var r replayRun
		if _, err := c.Run(); err != nil {
			r.err = err.Error()
		}
		r.replays = c.Work().Replays
		ck := fastpath.Capture(c, nil)
		ck.Config.ReplayCheck = false
		if r.ck, err = json.Marshal(ck); err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run("", true)
	if want.err != "" {
		t.Fatalf("interpreted run failed: %s", want.err)
	}
	if got := run("", false); got.err != "" || !bytes.Equal(got.ck, want.ck) {
		t.Fatalf("without a fault the replayed run ended %q and differs: %s", got.err, firstDiff(got.ck, want.ck))
	}
	for _, stream := range []string{"bp", "load", "record"} {
		if got := run(stream, false); got.err == want.err && bytes.Equal(got.ck, want.ck) {
			t.Errorf("a fault in the %s stream left the replayed machine equal to the interpreted one (%d replays)", stream, got.replays)
		}
	}
}

// TestRecordingWork pins what the replay cache does on program 0 of
// the bench-shaped go dict+RF and cc1 CodePack+RF images at a small
// scale: activations seen, forward runs that recorded and that were
// refused, the instructions those runs executed, and activations
// replayed. Every activation of these handlers replays, the first at
// each BADVA included. The counts are deterministic, so an eligibility
// regression that silently drops replays fails here.
func TestRecordingWork(t *testing.T) {
	for _, tc := range []struct {
		bench, scheme string
		scale         float64
		want          cpu.RecordWork
	}{
		{"go", "dict", 0.05, cpu.RecordWork{Activations: 1336, Recorded: 633, Steps: 31650, Replays: 1336}},
		{"cc1", "codepack", 0.01, cpu.RecordWork{Activations: 780, Recorded: 391, Steps: 289552, Replays: 780}},
	} {
		p, _ := synth.ByName(tc.bench)
		native, err := synth.Build(p.Scale(tc.scale))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Compress(native, core.Options{Scheme: program.Scheme(tc.scheme), ShadowRF: true})
		if err != nil {
			t.Fatal(err)
		}
		// ReplayCheck records the same and checks every activation the
		// replaying run replays, the first at each BADVA included.
		for _, check := range []bool{false, true} {
			cfg := cpu.DefaultConfig()
			cfg.ReplayCheck = check
			c, err := cpu.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Load(res.Image); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if got := c.Work(); got != tc.want {
				t.Errorf("%s %s+RF (ReplayCheck %v): replay work %+v, want %+v", tc.bench, tc.scheme, check, got, tc.want)
			}
		}
	}
}
