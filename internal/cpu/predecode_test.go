package cpu

import (
	"testing"
	"unsafe"

	"repro/internal/isa"
)

// TestPinstrSize: a predecoded record is 16 bytes, so the decode
// stores (pcode, hdec, fdec, fcdec) and compiled replay's kept records
// hold four to a 64-byte host cache line. A field added to pinstr
// shows here.
func TestPinstrSize(t *testing.T) {
	if n := unsafe.Sizeof(pinstr{}); n != 16 {
		t.Fatalf("pinstr is %d bytes, want 16", n)
	}
}

// TestDecodeTargetInImm: a branch's or jump's record holds its
// absolute target in imm, computed from the record's own address,
// including at the top of the address space (the target wraps) and at
// the last word of a 256 MB region (a jump there reaches the next
// region, as pc+4 does).
func TestDecodeTargetInImm(t *testing.T) {
	pcs := []uint32{0, 0x400000, 0x0FFFFFFC, 0x7FFFFFFC, 0xFFFFFFF8, 0xFFFFFFFC}
	offs := []uint32{0, 1, 0x7FFF, 0x8000, 0xFFFF}
	type tc struct {
		op pop
		w  uint32
	}
	var cases []tc
	for _, off := range offs {
		cases = append(cases,
			tc{pBLTZ, isa.EncodeI(isa.OpRegImm, 3, isa.RtBLTZ, off)},
			tc{pBGEZ, isa.EncodeI(isa.OpRegImm, 3, isa.RtBGEZ, off)},
			tc{pBEQ, isa.EncodeI(isa.OpBEQ, 3, 4, off)},
			tc{pBNE, isa.EncodeI(isa.OpBNE, 3, 4, off)},
			tc{pBLEZ, isa.EncodeI(isa.OpBLEZ, 3, 0, off)},
			tc{pBGTZ, isa.EncodeI(isa.OpBGTZ, 3, 0, off)})
	}
	for _, tgt := range []uint32{0, 1, 0x100000, 0x3FFFFFF} {
		cases = append(cases, tc{pJ, isa.EncodeJ(isa.OpJ, tgt)}, tc{pJAL, isa.EncodeJ(isa.OpJAL, tgt)})
	}
	for _, pc := range pcs {
		for _, c := range cases {
			want := isa.BranchTarget(pc, c.w)
			if c.op == pJ || c.op == pJAL {
				want = isa.JumpTarget(pc, c.w)
			}
			p := decodeInstr(pc, c.w)
			if p.op != c.op || p.imm != want || p.raw != c.w {
				t.Errorf("decodeInstr(%#x, %#08x) = op %d imm %#x raw %#x, want op %d imm %#x", pc, c.w, p.op, p.imm, p.raw, c.op, want)
			}
		}
	}
}

// TestPredecodeStaleMessage: the PredecodeCheck oracle's error text is
// pinned; callers and logs match on it.
func TestPredecodeStaleMessage(t *testing.T) {
	c := &CPU{}
	const pc = 0x400010
	w := isa.EncodeI(isa.OpBEQ, 1, 2, 3)
	p := decodeInstr(pc, w)
	if err := c.checkPredecode(&p, pc, w); err != nil {
		t.Fatalf("a fresh record is stale: %v", err)
	}
	// A record decoded at another address has another target.
	p = decodeInstr(pc+4, w)
	err := c.checkPredecode(&p, pc, w)
	if want := "cpu: predecode cache stale at 0x400010: cached 0x10220003, backing 0x10220003"; err == nil || err.Error() != want {
		t.Fatalf("stale record: error %v, want %q", err, want)
	}
}
