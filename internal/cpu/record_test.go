package cpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/mem"
)

// The forward recorder (replay.go) against handlers that are not
// well-behaved decompressors. Whatever a handler does, a replaying run
// must end as a ReplayCheck run, which interprets every activation,
// does: the same error, PC and machine.

// recordProgram calls a filler procedure larger than a 1 KB I-cache
// four times, so every line of it faults once per round.
var recordProgram = `
        .text 0x00800000
        .proc main
main:   move  $s1, $zero
round:  jal   filler
        addiu $s1, $s1, 1
        ori   $t0, $zero, 4
        bne   $s1, $t0, round
        move  $a0, $zero
        ori   $v0, $zero, 10
        syscall
        .endp
        .proc filler
filler:
` + strings.Repeat("        addiu $t9, $t9, 1\n", 300) + `        jr    $ra
        .endp
`

// recordOutcome is what one run leaves observable.
type recordOutcome struct {
	err   string
	pc    uint32
	state MachineState
	mem   mem.State
	ic    cache.State
	dc    cache.State
	bp    bpred.State
	work  recordWork
}

// recordRun runs src under handler to its end, replaying or (check)
// under ReplayCheck, with a 1 KB I-cache and budget instructions.
func recordRun(t *testing.T, src, handler string, shadowRF bool, budget uint64, check bool) recordOutcome {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ICache.SizeBytes = 1 << 10
	cfg.MaxInstr = budget
	cfg.ReplayCheck = check
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(buildWithHandler(t, src, handler, shadowRF)); err != nil {
		t.Fatal(err)
	}
	var o recordOutcome
	if _, err := c.Run(); err != nil {
		o.err = err.Error()
	}
	o.pc, o.state, o.work = c.PC(), c.CaptureState(), c.rp.work
	o.mem, o.ic, o.dc, o.bp = c.Mem.Snapshot(), c.IC.Snapshot(), c.DC.Snapshot(), c.BP.Snapshot()
	return o
}

// compareRecord runs src both ways and fails unless they end alike; it
// returns the replaying run.
func compareRecord(t *testing.T, src, handler string, shadowRF bool, budget uint64) recordOutcome {
	t.Helper()
	got, want := recordRun(t, src, handler, shadowRF, budget, false), recordRun(t, src, handler, shadowRF, budget, true)
	if strings.Contains(want.err, "replay check") {
		t.Fatal(want.err)
	}
	if got.err != want.err || got.pc != want.pc {
		t.Fatalf("replaying run ended %q at %#x, interpreted %q at %#x", got.err, got.pc, want.err, want.pc)
	}
	for _, d := range []struct {
		name      string
		got, want any
	}{
		{"core", got.state, want.state}, {"memory", got.mem, want.mem}, {"I-cache", got.ic, want.ic},
		{"D-cache", got.dc, want.dc}, {"predictor", got.bp, want.bp},
	} {
		if !reflect.DeepEqual(d.got, d.want) {
			t.Errorf("replaying and interpreted runs leave different %s state", d.name)
		}
	}
	return got
}

// copyBody is copyHandler between its entry and its iret.
const copyBody = `
        mfc0  $k1, $c0_badva
        srl   $k1, $k1, 5
        sll   $k1, $k1, 5
        mfc0  $k0, $c0_dbase
        subu  $t0, $k1, $k0
        mfc0  $t1, $c0_dict
        addu  $t1, $t1, $t0
        addiu $t2, $k1, 32
copy:   lw    $t3, 0($t1)
        swic  $t3, 0($k1)
        addiu $t1, $t1, 4
        addiu $k1, $k1, 4
        bne   $k1, $t2, copy
`

func handlerSource(body string) string {
	return "        .section .decompressor, 0x7F000000\n        .proc __h\n__h:\n" + body + "        .endp\n"
}

// TestRecordSpinningHandler: a handler that never reaches its iret is
// refused once its forward run reaches recordCap, and interpreted until
// the budget ends the run. Under a budget shorter than the cap the
// forward run stops at the budget instead, and records nothing.
func TestRecordSpinningHandler(t *testing.T) {
	spin := handlerSource(`
        mfc0  $k1, $c0_badva
spin:   addiu $k1, $k1, 1
        j     spin
`)
	got := compareRecord(t, recordProgram, spin, true, 3*recordCap)
	if !strings.Contains(got.err, "budget") {
		t.Fatalf("run ended %q, want a budget error", got.err)
	}
	if w := got.work; w.steps != recordCap || w.refused != 1 || w.recorded != 0 {
		t.Errorf("forward runs: %+v, want one refused at %d steps", w, recordCap)
	}
	// The first fetch faults, so the forward run starts with the whole
	// budget left.
	got = compareRecord(t, recordProgram, spin, true, 5000)
	if w := got.work; w.steps != 5000 || w.refused != 0 || w.recorded != 0 {
		t.Errorf("forward runs under a 5000-instruction budget: %+v, want one abandoned at the budget", w)
	}
}

// TestRecordLateUnwrittenRead: a handler that reads a register it never
// wrote after about 1,000 instructions is refused there, at each BADVA,
// and interpreted.
func TestRecordLateUnwrittenRead(t *testing.T) {
	h := handlerSource(`
        ori   $t0, $zero, 500
wait:   addiu $t0, $t0, -1
        bne   $t0, $zero, wait
        or    $t8, $t9, $zero
` + copyBody + `        iret
`)
	for _, rf := range []bool{true, false} {
		got := compareRecord(t, recordProgram, h, rf, 2_000_000)
		if got.err != "" {
			t.Fatalf("shadow RF %v: run failed: %s", rf, got.err)
		}
		if w := got.work; w.refused == 0 || w.recorded != 0 || w.replays != 0 || w.steps < 1000*w.refused {
			t.Errorf("shadow RF %v: forward runs %+v, want every one refused after 1,000 steps", rf, w)
		}
	}
}

// TestRecordStoreBeforeIret: a handler whose last instruction before
// the iret stores is refused there and interpreted, and its store
// lands.
func TestRecordStoreBeforeIret(t *testing.T) {
	h := handlerSource(copyBody + `
        lui   $t5, 0x1000
        sw    $t3, 0($t5)
        iret
`)
	got := compareRecord(t, recordProgram, h, true, 2_000_000)
	if got.err != "" {
		t.Fatalf("run failed: %s", got.err)
	}
	if w := got.work; w.refused == 0 || w.recorded != 0 || w.replays != 0 {
		t.Errorf("forward runs %+v, want every one refused", w)
	}
}

// fuzzHandler builds a handler from data: copyHandler with instructions
// drawn from the ops the forward run admits inserted before and inside
// its copy loop, and now and then one it refuses. The first two bytes
// pick the registers the handler sets first; a read of any other is a
// read of a register the activation has not written. The inserted
// instructions write only registers the copy does not use.
func fuzzHandler(data []byte) string {
	dst := []string{"$t4", "$t5", "$t6", "$t7", "$t8", "$t9", "$s0", "$a0", "$v0", "$v1"}
	src := append([]string{"$zero", "$k1", "$t1", "$t3"}, dst...)
	var pre, loop strings.Builder
	if len(data) >= 2 {
		for i, r := range dst {
			if (int(data[0])|int(data[1])<<8)>>i&1 != 0 {
				fmt.Fprintf(&pre, "        ori   %s, $zero, %d\n", r, 3*i+1)
			}
		}
		data = data[2:]
	}
	label := 0
	for i := 0; i+3 <= len(data) && i < 3*32; i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		d, s, u := dst[int(a)%len(dst)], src[int(b)%len(src)], src[int(b>>4)%len(src)]
		var ins string
		switch op % 24 {
		case 0:
			ins = fmt.Sprintf("addu %s, %s, %s", d, s, u)
		case 1:
			ins = fmt.Sprintf("subu %s, %s, %s", d, s, u)
		case 2:
			ins = fmt.Sprintf("xor %s, %s, %s", d, s, u)
		case 3:
			ins = fmt.Sprintf("sltu %s, %s, %s", d, s, u)
		case 4:
			ins = fmt.Sprintf("srav %s, %s, %s", d, s, u)
		case 5:
			ins = fmt.Sprintf("sll %s, %s, %d", d, s, b%32)
		case 6:
			ins = fmt.Sprintf("addiu %s, %s, %d", d, s, int8(a))
		case 7:
			ins = fmt.Sprintf("andi %s, %s, %d", d, s, b)
		case 8:
			ins = fmt.Sprintf("lui %s, %d", d, b)
		case 9:
			ins = fmt.Sprintf("multu %s, %s", s, u)
		case 10:
			ins = fmt.Sprintf("mfhi %s", d)
		case 11:
			ins = fmt.Sprintf("mflo %s", d)
		case 12:
			ins = fmt.Sprintf("mfc0 %s, $c0_%s", d, []string{"dbase", "dict", "epc", "badva", "status"}[int(b)%5])
		case 13:
			ins = fmt.Sprintf("lw %s, %d($t1)", d, int(b%16)*4-32)
		case 14:
			ins = fmt.Sprintf("lbu %s, %d($t1)", d, int(int8(b)))
		case 15:
			ins = fmt.Sprintf("lh %s, %d($t1)", d, int(int8(b))) // odd offsets are unaligned
		case 16, 17:
			label++
			br := []string{"beq %s, %s", "bne %s, %s"}[op%2]
			ins = fmt.Sprintf(br+", f%d\n        addu %s, %s, %s\nf%d:", s, u, label, d, d, s, label)
		case 18:
			label++
			ins = fmt.Sprintf("bgtz %s, f%d\n        addiu %s, %s, 1\nf%d:", s, label, d, d, label)
		case 19:
			label++
			ins = fmt.Sprintf("jal f%d\n        nop\nf%d:", label, label)
		case 20:
			ins = fmt.Sprintf("or %s, %s, $t%d", d, s, 4+int(b)%6) // maybe unwritten
		case 21: // refused
			ins = []string{"divu $t4, $t5", "sw $t3, -4($sp)", "break", "addu $t4, $t4, $a1"}[int(b)%4]
		default:
			ins = fmt.Sprintf("ori %s, %s, %d", d, s, b)
		}
		w := &pre
		if a&0x80 != 0 {
			w = &loop
		}
		fmt.Fprintf(w, "        %s\n", ins)
	}
	body := strings.Replace(copyBody, "copy:", pre.String()+"copy:", 1)
	body = strings.Replace(body, "        addiu $t1, $t1, 4\n", loop.String()+"        addiu $t1, $t1, 4\n", 1)
	return handlerSource(body + "        iret\n")
}

// FuzzHandlerRecord runs random handler bodies replaying and under
// ReplayCheck with a small budget: the runs must end alike, with the
// same error, PC and machine, and no panic or hang.
func FuzzHandlerRecord(f *testing.F) {
	f.Add([]byte{}, true)
	f.Add([]byte{0xff, 3, 0, 1, 2, 6, 3, 0x85, 9, 4, 5, 10, 0, 0, 13, 0x83, 3, 16, 2, 0x41}, true)
	f.Add([]byte{0x3f, 0, 20, 0, 0, 12, 1, 3, 14, 0x82, 0xf1, 5, 0x84, 0x22}, false)
	f.Add([]byte{0xff, 3, 21, 0, 1, 0, 1, 2}, true)
	f.Add([]byte{0xff, 3, 15, 0x81, 3, 11, 4, 0, 19, 0, 0, 18, 5, 0x36}, true)
	f.Add([]byte{0x0f, 0, 0, 5, 0x66}, true)
	f.Fuzz(func(t *testing.T, data []byte, shadowRF bool) {
		compareRecord(t, recordProgram, fuzzHandler(data), shadowRF, 20_000)
	})
}
