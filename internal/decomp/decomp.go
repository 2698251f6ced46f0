// Package decomp provides the software decompressors: real exception
// handlers written in CLR32 assembly, assembled into the dedicated
// decompressor RAM. Four production handlers are provided, matching the
// paper's four configurations (§4.1):
//
//   - dictionary (a transcription of the paper's Figure 2),
//   - dictionary with a second (shadow) register file, fully unrolled,
//   - CodePack,
//   - CodePack with a shadow register file.
//
// A fifth "copy" handler (no compression; copies lines from a backed
// golden image) serves as an ablation baseline that isolates the cost of
// the exception/swic mechanism itself.
package decomp

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/asm"
	"repro/internal/compress/dict"
	"repro/internal/program"
)

// LineBytes is the I-cache line size the handlers are written for.
const LineBytes = 32

// Variant selects a handler.
type Variant struct {
	Scheme   program.Scheme
	ShadowRF bool
	// IndexBits applies to the dictionary scheme only (16 is the paper's
	// configuration; 8 is an ablation).
	IndexBits dict.IndexBits
}

func (v Variant) String() string {
	name := string(v.Scheme)
	if v.Scheme == program.SchemeDict && v.IndexBits == dict.Index8 {
		name += "8"
	}
	if v.ShadowRF {
		name += "+RF"
	}
	return name
}

// Variants returns every shipped handler configuration, in the order
// the paper presents them (§4.1) plus the ablation handlers.
func Variants() []Variant {
	return []Variant{
		{Scheme: program.SchemeDict},
		{Scheme: program.SchemeDict, ShadowRF: true},
		{Scheme: program.SchemeDict, IndexBits: dict.Index8},
		{Scheme: program.SchemeCodePack},
		{Scheme: program.SchemeCodePack, ShadowRF: true},
		{Scheme: program.SchemeProcDict},
		{Scheme: program.SchemeProcDict, ShadowRF: true},
		{Scheme: "copy", ShadowRF: true},
	}
}

// Source returns the handler's assembly source text.
func Source(v Variant) (string, error) {
	switch v.Scheme {
	case program.SchemeDict:
		shift := uint(1)
		load := "lhu"
		scale := uint(2)
		if v.IndexBits == dict.Index8 {
			shift, load, scale = 2, "lbu", 1
		}
		if v.ShadowRF {
			return dictRFSource(shift, load, scale), nil
		}
		return dictSource(shift, load, scale), nil
	case program.SchemeCodePack:
		return codepackSource(v.ShadowRF), nil
	case program.SchemeProcDict:
		return procdictSource(v.ShadowRF), nil
	case "copy":
		return copySource(v.ShadowRF), nil
	default:
		return "", fmt.Errorf("decomp: no handler for scheme %q", v.Scheme)
	}
}

// Build assembles the handler for v and returns its .decompressor segment.
func Build(v Variant) (*program.Segment, error) {
	src, err := Source(v)
	if err != nil {
		return nil, err
	}
	return BuildSource(v.String(), src)
}

// BuildSource assembles handler source text (named for error messages)
// into its .decompressor segment and size-checks it against the handler
// RAM. It is the assembly path codecs outside this package share.
// Each distinct (name, source) pair is assembled once per process; every
// call returns its own copy of the segment, which the caller may modify.
func BuildSource(name, src string) (*program.Segment, error) {
	built.Lock()
	defer built.Unlock()
	key := [2]string{name, src}
	seg, ok := built.segs[key]
	if !ok {
		var err error
		if seg, err = assemble(name, src); err != nil {
			return nil, err
		}
		built.segs[key] = seg
	}
	return &program.Segment{Name: seg.Name, Base: seg.Base, Data: append([]byte(nil), seg.Data...), Virtual: seg.Virtual}, nil
}

// built holds every handler BuildSource has assembled, keyed by name and
// source. Every image that installs a handler assembles the same few
// sources: selective compression alone compresses a program once per
// threshold.
var built = struct {
	sync.Mutex
	segs map[[2]string]*program.Segment
}{segs: map[[2]string]*program.Segment{}}

func assemble(name, src string) (*program.Segment, error) {
	im, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("decomp: assembling %s handler: %v", name, err)
	}
	seg := im.Segment(program.SegDecompressor)
	if seg == nil {
		return nil, fmt.Errorf("decomp: %s handler has no %s section", name, program.SegDecompressor)
	}
	if uint32(len(seg.Data)) > program.HandlerSize {
		return nil, fmt.Errorf("decomp: %s handler exceeds handler RAM", name)
	}
	return seg, nil
}

const header = `
        .section .decompressor, 0x7F000000
`

// dictSource is the paper's Figure 2: the L1 miss exception handler for
// the dictionary method, using the single register file (registers are
// saved to the user stack; $k0/$k1 are reserved for the OS and need no
// saving). shift maps a native byte offset to an index-stream offset,
// load is the index load (lhu/lbu) and scale the index byte width log2.
func dictSource(shift uint, load string, scale uint) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString(`
# Load L1 I-cache line with 8 instructions (dictionary method, Figure 2).
#   $k1: cache line address, then store pointer
#   $t1: index address        $t2: dictionary base
#   $t3: index / entry temp   $t4: next line address (loop stop)
        .proc __decompress_dict
__decompress_dict:
        # Save registers to the user stack; $k0,$k1 need no saving.
        sw    $t1, -4($sp)
        sw    $t2, -8($sp)
        sw    $t3, -12($sp)
        sw    $t4, -16($sp)
        # System register inputs.
        mfc0  $k1, $c0_badva     # the faulting address
        mfc0  $k0, $c0_dbase     # decompressed region base
        mfc0  $t2, $c0_dict      # dictionary base
        mfc0  $t3, $c0_indices   # indices base
        # Zero low 5 bits to get the cache line address.
        srl   $k1, $k1, 5
        sll   $k1, $k1, 5
        # index_address = (badva - dbase) >> SHIFT + indices
        subu  $t1, $k1, $k0
`)
	fmt.Fprintf(&b, "        srl   $t1, $t1, %d\n", shift)
	b.WriteString(`        addu  $t1, $t3, $t1
        addiu $t4, $k1, 32       # stop when the next line is reached
loop:
`)
	fmt.Fprintf(&b, "        %s   $t3, 0($t1)\n", load)
	fmt.Fprintf(&b, "        addiu $t1, $t1, %d\n", scale) // index byte width
	fmt.Fprintf(&b, "        sll   $t3, $t3, 2\n")
	b.WriteString(`        addu  $t3, $t3, $t2      # dictionary entry address
        lw    $k0, 0($t3)        # the instruction
        swic  $k0, 0($k1)        # store word into the I-cache
        addiu $k1, $k1, 4
        bne   $k1, $t4, loop
        # Restore registers and return.
        lw    $t1, -4($sp)
        lw    $t2, -8($sp)
        lw    $t3, -12($sp)
        lw    $t4, -16($sp)
        iret
        .endp
`)
	return b.String()
}

// dictRFSource is the second-register-file variant (§4.1): no register
// save/restore, and the extra registers allow the loop to be fully
// unrolled, eliminating the pointer increments and the branch.
func dictRFSource(shift uint, load string, scale uint) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString(`
# Dictionary decompressor with a second register file: the handler owns
# every register, so nothing is saved and the copy loop is unrolled.
        .proc __decompress_dict_rf
__decompress_dict_rf:
        mfc0  $k1, $c0_badva
        mfc0  $k0, $c0_dbase
        mfc0  $t2, $c0_dict
        mfc0  $t3, $c0_indices
        srl   $k1, $k1, 5
        sll   $k1, $k1, 5
        subu  $t1, $k1, $k0
`)
	fmt.Fprintf(&b, "        srl   $t1, $t1, %d\n", shift)
	b.WriteString("        addu  $t1, $t3, $t1\n")
	for i := 0; i < LineBytes/4; i++ {
		fmt.Fprintf(&b, "        %s   $t4, %d($t1)\n", load, i*int(scale))
		fmt.Fprintf(&b, "        sll   $t4, $t4, 2\n")
		fmt.Fprintf(&b, "        addu  $t4, $t4, $t2\n")
		fmt.Fprintf(&b, "        lw    $t5, 0($t4)\n")
		fmt.Fprintf(&b, "        swic  $t5, %d($k1)\n", i*4)
	}
	b.WriteString("        iret\n        .endp\n")
	return b.String()
}

// copySource builds the null "decompressor": it copies the missed line
// from a backed golden copy whose base is in $c0_dict, isolating the
// exception + swic overhead. The single-register-file variant saves its
// three temporaries to the red zone, like the dictionary handler.
func copySource(shadowRF bool) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString(`
# Null "decompressor": copies the missed line from a backed golden copy
# whose base is in $c0_dict. Isolates the exception + swic overhead.
        .proc __decompress_copy
__decompress_copy:
`)
	if !shadowRF {
		b.WriteString(`        sw    $t1, -4($sp)
        sw    $t2, -8($sp)
        sw    $t3, -12($sp)
`)
	}
	b.WriteString(`        mfc0  $k1, $c0_badva
        srl   $k1, $k1, 5
        sll   $k1, $k1, 5
        mfc0  $k0, $c0_dbase
        subu  $k0, $k1, $k0
        mfc0  $t1, $c0_dict
        addu  $t1, $t1, $k0
        addiu $t2, $k1, 32
cloop:  lw    $t3, 0($t1)
        swic  $t3, 0($k1)
        addiu $t1, $t1, 4
        addiu $k1, $k1, 4
        bne   $k1, $t2, cloop
`)
	if !shadowRF {
		b.WriteString(`        lw    $t1, -4($sp)
        lw    $t2, -8($sp)
        lw    $t3, -12($sp)
`)
	}
	b.WriteString("        iret\n        .endp\n")
	return b.String()
}

// codepackSource builds the CodePack group decompressor. It decodes a
// whole 16-instruction group (two cache lines) serially from the
// variable-length bit-stream, as the algorithm requires (§3.2).
//
// Register roles during the decode loop:
//
//	$t9 stream ptr   $t7 bit buffer (MSB-justified)   $t6 valid bits
//	$t0/$t1 rank-0 hi/lo values
//	$t2/$t3 hi/lo class-1 tables, $t4/$t5 class-2, $s0/$s1 class-3
//	$k1 write address  $s2 group end  $s3 decoded high half
//	$t8/$k0 scratch
func codepackSource(shadowRF bool) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteString("        .proc __decompress_codepack\n__decompress_codepack:\n")
	saved := []string{"$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7", "$t8", "$t9", "$s0", "$s1", "$s2", "$s3"}
	if !shadowRF {
		b.WriteString("        # Single register file: save everything we touch.\n")
		for i, r := range saved {
			fmt.Fprintf(&b, "        sw    %s, %d($sp)\n", r, -4*(i+1))
		}
	}
	b.WriteString(`        # Locate the group: both cache lines at (badva & ~63).
        mfc0  $k1, $c0_badva
        srl   $k1, $k1, 6
        sll   $k1, $k1, 6        # k1 = group base address
        mfc0  $k0, $c0_dbase
        subu  $t8, $k1, $k0      # byte offset into region (64-aligned)
        srl   $t8, $t8, 4        # = group index * 4: LAT entry offset
        mfc0  $t9, $c0_lat
        addu  $t8, $t9, $t8
        lw    $t8, 0($t8)        # stream byte offset (the extra access)
        mfc0  $t9, $c0_indices
        addu  $t9, $t9, $t8      # t9 = stream pointer
        # Preload the decode tables from the .dictionary header.
        mfc0  $t8, $c0_dict
        lhu   $t0, 0($t8)        # rank-0 high value
        lhu   $t1, 2($t8)        # rank-0 low value
        lw    $t2, 4($t8)
        addu  $t2, $t2, $t8      # hi class-1 table
        lw    $t3, 8($t8)
        addu  $t3, $t3, $t8      # lo class-1 table
        lw    $t4, 12($t8)
        addu  $t4, $t4, $t8      # hi class-2 table
        lw    $t5, 16($t8)
        addu  $t5, $t5, $t8      # lo class-2 table
        lw    $s0, 20($t8)
        addu  $s0, $s0, $t8      # hi class-3 table
        lw    $s1, 24($t8)
        addu  $s1, $s1, $t8      # lo class-3 table
        move  $t7, $zero         # bit buffer
        move  $t6, $zero         # valid bit count
        addiu $s2, $k1, 64       # group end
`)
	// take emits code consuming k bits into $t8.
	take := func(label string, k int) {
		fmt.Fprintf(&b, "        slti  $k0, $t6, %d\n", k)
		fmt.Fprintf(&b, "        beq   $k0, $zero, %s\n", label)
		b.WriteString(`        lhu   $k0, 0($t9)        # refill 16 bits
        addiu $t9, $t9, 2
        ori   $t8, $zero, 16
        subu  $t8, $t8, $t6
        sllv  $k0, $k0, $t8
        or    $t7, $t7, $k0
        addiu $t6, $t6, 16
`)
		fmt.Fprintf(&b, "%s:\n", label)
		fmt.Fprintf(&b, "        srl   $t8, $t7, %d\n", 32-k)
		fmt.Fprintf(&b, "        sll   $t7, $t7, %d\n", k)
		fmt.Fprintf(&b, "        addiu $t6, $t6, -%d\n", k)
	}
	// decodeHalf emits code leaving the decoded halfword in $t8.
	decodeHalf := func(side string, rank0, t1, t2, t3 string) {
		p := func(format string, args ...interface{}) { fmt.Fprintf(&b, format+"\n", args...) }
		take(side+"_f0", 2)
		p("        beq   $t8, $zero, %s_rank0", side)
		p("        slti  $k0, $t8, 2")
		p("        bne   $k0, $zero, %s_c1", side)
		p("        slti  $k0, $t8, 3")
		p("        bne   $k0, $zero, %s_c2", side)
		take(side+"_f1", 1)
		p("        bne   $t8, $zero, %s_raw", side)
		take(side+"_f3", 11)
		p("        sll   $t8, $t8, 1")
		p("        addu  $t8, $t8, %s", t3)
		p("        lhu   $t8, 0($t8)")
		p("        b     %s_done", side)
		p("%s_raw:", side)
		take(side+"_f4", 16)
		p("        b     %s_done", side)
		p("%s_c2:", side)
		take(side+"_f5", 8)
		p("        sll   $t8, $t8, 1")
		p("        addu  $t8, $t8, %s", t2)
		p("        lhu   $t8, 0($t8)")
		p("        b     %s_done", side)
		p("%s_c1:", side)
		take(side+"_f6", 5)
		p("        sll   $t8, $t8, 1")
		p("        addu  $t8, $t8, %s", t1)
		p("        lhu   $t8, 0($t8)")
		p("        b     %s_done", side)
		p("%s_rank0:", side)
		p("        move  $t8, %s", rank0)
		p("%s_done:", side)
	}
	b.WriteString("iloop:\n")
	decodeHalf("hi", "$t0", "$t2", "$t4", "$s0")
	b.WriteString("        sll   $s3, $t8, 16      # hold the high half\n")
	decodeHalf("lo", "$t1", "$t3", "$t5", "$s1")
	b.WriteString(`        or    $s3, $s3, $t8
        swic  $s3, 0($k1)
        addiu $k1, $k1, 4
        bne   $k1, $s2, iloop
`)
	if !shadowRF {
		for i, r := range saved {
			fmt.Fprintf(&b, "        lw    %s, %d($sp)\n", r, -4*(i+1))
		}
	}
	b.WriteString("        iret\n        .endp\n")
	return b.String()
}
