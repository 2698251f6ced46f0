// Package program defines the linked binary image format shared by the
// assembler, the compressors, the selective-compression rewriter and the
// CPU simulator.
//
// An Image is a set of placed segments plus the metadata the rest of the
// system needs: a symbol table, the procedure table (for profiling and
// selective compression), relocation records (so procedures can be moved
// between the native and compressed regions), and — for compressed
// programs — the compressed-region geometry the decompression handler
// reads out of the system registers.
package program

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Memory map. The layout follows Figure 3 of the paper: compressed data
// (.dictionary/.indices/.lat) and native code live in physical memory; the
// decompressed code region exists only in the instruction cache; the
// decompressor itself sits in a small dedicated RAM fetched in parallel
// with the I-cache.
const (
	NativeBase   = 0x00400000 // native (memory-backed) code region
	CompBase     = 0x00800000 // decompressed code region (I-cache only)
	CompDataBase = 0x10000000 // .dictionary, .indices, .lat
	DataBase     = 0x20000000 // .data, then heap
	StackTop     = 0x70000000 // initial $sp (grows down)
	HandlerBase  = 0x7F000000 // decompressor RAM (.decompressor)
	HandlerSize  = 0x00010000
)

// Segment names with special meaning to the loader and tools.
const (
	SegText         = ".text"         // program code (native image) or golden copy (compressed image)
	SegNative       = ".native"       // uncompressed procedures of a selective image
	SegData         = ".data"         // initialised data
	SegDict         = ".dictionary"   // dictionary / decode tables
	SegIndices      = ".indices"      // compressed code stream
	SegLAT          = ".lat"          // CodePack line-address (mapping) table
	SegDecompressor = ".decompressor" // handler code, loaded into handler RAM
)

// Segment is a named, placed span of bytes. Virtual segments describe
// address ranges that exist only inside the I-cache (the decompressed code
// region of a compressed program) and must not be loaded into main memory.
type Segment struct {
	Name    string
	Base    uint32
	Data    []byte
	Virtual bool
}

// End returns the first address past the segment.
func (s *Segment) End() uint32 { return s.Base + uint32(len(s.Data)) }

// Contains reports whether addr falls inside the segment. It compares
// offsets, so a segment that ends exactly at 2^32 (End() wraps to 0)
// still contains its words.
func (s *Segment) Contains(addr uint32) bool {
	return addr-s.Base < uint32(len(s.Data))
}

// Word returns the little-endian 32-bit word at addr within the segment.
func (s *Segment) Word(addr uint32) uint32 {
	off := addr - s.Base
	return binary.LittleEndian.Uint32(s.Data[off : off+4])
}

// SetWord stores a little-endian 32-bit word at addr within the segment.
func (s *Segment) SetWord(addr, w uint32) {
	off := addr - s.Base
	binary.LittleEndian.PutUint32(s.Data[off:off+4], w)
}

// Procedure is one function of the program: the unit of profiling and of
// selective compression.
type Procedure struct {
	Name string
	Addr uint32
	Size uint32 // bytes
}

// End is the address one past the procedure body, in 64 bits so that
// a body running to the top of the address space does not wrap.
func (p *Procedure) End() uint64 { return uint64(p.Addr) + uint64(p.Size) }

// Contains reports whether addr falls inside the procedure body.
func (p *Procedure) Contains(addr uint32) bool {
	return addr >= p.Addr && uint64(addr) < p.End()
}

// Scheme identifies a compression algorithm.
type Scheme string

// Supported compression schemes.
const (
	SchemeNone     Scheme = "none"
	SchemeDict     Scheme = "dict"
	SchemeCodePack Scheme = "codepack"
	// SchemeProcDict uses the dictionary codec but decompresses at
	// procedure granularity (the whole procedure on any miss inside it),
	// modelling Kirovski et al.'s procedure-based scheme the paper
	// compares against in §2/§5.2. Requires a procedure-bounds table
	// (stored where the LAT otherwise goes).
	SchemeProcDict Scheme = "procdict"
)

// CompressionInfo carries the compressed-region geometry of a compressed
// image. The loader copies the bases into the system registers the
// decompression handler reads with mfc0 (Figure 2 of the paper).
type CompressionInfo struct {
	Scheme      Scheme
	CompStart   uint32 // first address of the decompressed (virtual) region
	CompEnd     uint32 // first address past it
	DictBase    uint32
	IndicesBase uint32
	LATBase     uint32 // CodePack only
	ShadowRF    bool   // handler uses the second register file
}

// Image is a fully linked program.
type Image struct {
	Entry    uint32
	Segments []*Segment
	Symbols  map[string]uint32
	Procs    []Procedure // ascending by Addr, covering the code region(s)
	Relocs   []Reloc     // retained so procedures can be re-laid out
	Compress *CompressionInfo
}

// Segment returns the named segment, or nil.
func (im *Image) Segment(name string) *Segment {
	for _, s := range im.Segments {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// SegmentAt returns the segment containing addr, or nil.
func (im *Image) SegmentAt(addr uint32) *Segment {
	for _, s := range im.Segments {
		if s.Contains(addr) {
			return s
		}
	}
	return nil
}

// ProcAt returns the procedure containing addr, or nil.
func (im *Image) ProcAt(addr uint32) *Procedure {
	i := sort.Search(len(im.Procs), func(i int) bool {
		return im.Procs[i].End() > uint64(addr)
	})
	if i < len(im.Procs) && im.Procs[i].Contains(addr) {
		return &im.Procs[i]
	}
	return nil
}

// ProcByName returns the named procedure, or nil.
func (im *Image) ProcByName(name string) *Procedure {
	for i := range im.Procs {
		if im.Procs[i].Name == name {
			return &im.Procs[i]
		}
	}
	return nil
}

// IsCodeSeg reports whether the named segment holds executable user
// code (as opposed to data, compressed streams or the handler RAM).
func IsCodeSeg(name string) bool {
	return name == SegText || name == SegNative
}

// CodeSegments returns the segments holding executable user code, in
// image order.
func (im *Image) CodeSegments() []*Segment {
	var out []*Segment
	for _, s := range im.Segments {
		if IsCodeSeg(s.Name) {
			out = append(out, s)
		}
	}
	return out
}

// CodeSize returns the total code bytes: .text for a native image, or
// .native plus the virtual decompressed region for a compressed one.
func (im *Image) CodeSize() int {
	n := 0
	for _, s := range im.Segments {
		if s.Name == SegText || s.Name == SegNative {
			n += len(s.Data)
		}
	}
	return n
}

// StoredCodeSize returns the bytes of main memory the program's code
// occupies: the compressed representation (.dictionary + .indices + .lat)
// plus any native-region code. For a native image it equals CodeSize.
// Following the paper (§5.1), the decompressor itself is not counted.
func (im *Image) StoredCodeSize() int {
	if im.Compress == nil {
		return im.CodeSize()
	}
	n := 0
	for _, s := range im.Segments {
		switch s.Name {
		case SegDict, SegIndices, SegLAT, SegNative:
			n += len(s.Data)
		}
	}
	return n
}

// Validate checks structural invariants: segments and procedures inside
// the 32-bit address space, segments not overlapping, sorted
// non-overlapping procedures, entry inside a segment.
func (im *Image) Validate() error {
	for _, s := range im.Segments {
		if uint64(s.Base)+uint64(len(s.Data)) > 1<<32 {
			return fmt.Errorf("program: segment %s runs past the 32-bit address space", s.Name)
		}
	}
	segs := append([]*Segment(nil), im.Segments...)
	sort.Slice(segs, func(i, j int) bool { return segs[i].Base < segs[j].Base })
	for i := 1; i < len(segs); i++ {
		// In 64 bits: a segment ending at 2^32 has End() 0.
		if uint64(segs[i-1].Base)+uint64(len(segs[i-1].Data)) > uint64(segs[i].Base) {
			return fmt.Errorf("program: segments %s and %s overlap", segs[i-1].Name, segs[i].Name)
		}
	}
	for i := range im.Procs {
		q := &im.Procs[i]
		if q.End() > 1<<32 {
			return fmt.Errorf("program: procedure %s runs past the 32-bit address space", q.Name)
		}
		if i > 0 && im.Procs[i-1].End() > uint64(q.Addr) {
			return fmt.Errorf("program: procedures %s and %s overlap", im.Procs[i-1].Name, q.Name)
		}
	}
	if s := im.SegmentAt(im.Entry); s == nil {
		return fmt.Errorf("program: entry %#x not inside any segment", im.Entry)
	}
	return nil
}
