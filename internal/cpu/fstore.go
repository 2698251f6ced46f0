package cpu

// The functional policy's fetch source.
//
// The functional policy runs the same loop as the detailed one (run)
// with none of the timing machinery: no caches, no predictor, no cycle
// charging. Decompression still happens: decompressed code words are
// materialised into the functional store (fsWord/fsOK, a flat image of
// the compressed region standing in for the I-cache). A fetch inside the
// compressed region whose word is not yet materialised raises the shared
// decompression exception (EPC/BADVA/EXL, bank switch, vector to the
// handler); the handler runs functionally and its swic stores land in
// the store. Because the store never evicts, a line faults at most once —
// the functional exception count is a lower bound on the detailed one,
// which re-faults on I-cache evictions. That is why FunctStats is a
// separate type: functional counters are not comparable to timing
// counters, except FunctStats.Instrs, which must equal Stats.Instrs
// exactly for the same program (the equivalence battery pins this).
//
// Code words are decoded at most once into flat per-word decode stores —
// fcdec over the compressed region (indexed in lockstep with the
// functional store) and fdec over the native code extent [fdBase,fdEnd) —
// where a record not decoded yet is pUndecoded. Each store is a fetch
// window of the functional loop, which re-validates every record before
// it executes it, so coherence against self-modifying code is O(1): a
// store or swic that touches a code word marks exactly that word's
// record undecoded (finvalWord) and the next fetch re-decodes it. Code
// executing outside both extents (rare: programs running code out of
// data memory) is decoded on every fetch and therefore always coherent.
//
// A swic outside the compressed region lands in fxtra, which fetch reads
// before memory, as the detailed engine's fetch reads the swic'd I-cache
// line. The one case the functional policy cannot model is a swic'd
// native line that the I-cache evicts before it is fetched: the detailed
// engine then refills the line from memory, while fxtra keeps the
// swic'd word.

import (
	"encoding/binary"
	"fmt"
)

// FunctStats counts work done by the untimed policies (functional and
// warm). These are architectural counters, not timing ones: there is no
// cycle column because neither policy charges any.
type FunctStats struct {
	Instrs        uint64 // user instructions retired untimed
	HandlerInstrs uint64 // handler instructions retired untimed
	Exceptions    uint64 // decompression exceptions taken functionally
}

// resetFunctional clears the functional store (called from Load and
// RestoreState). The flat stores are allocated lazily on first
// functional execution (fensure) so detailed-only runs never pay for
// them.
func (c *CPU) resetFunctional() {
	c.fsWord, c.fsOK = nil, nil
	c.fxtra = nil
	c.fcdec, c.fdec = nil, nil
}

// fensure allocates the flat functional stores for the current image
// geometry.
func (c *CPU) fensure() {
	if c.compEnd > c.compStart && c.fcdec == nil {
		n := (c.compEnd - c.compStart) >> 2
		if c.fsWord == nil {
			c.fsWord = make([]uint32, n)
			c.fsOK = make([]uint8, n)
		}
		c.fcdec = make([]pinstr, n)
	}
	c.fdecEnsure()
}

// fdecEnsure allocates the native-extent decode store fdec. Both
// policies share it: the functional one fetches from it and the
// detailed engine's I-cache refills copy their records out of it.
func (c *CPU) fdecEnsure() {
	if c.fdec == nil && c.fdEnd > c.fdBase {
		n := (c.fdEnd - c.fdBase) >> 2
		c.fdec = make([]pinstr, n)
	}
}

// fsPut materialises one functional code word (a swic store or a
// hardware-decompressor fill). Overwriting a word with different
// content invalidates its decoded record.
func (c *CPU) fsPut(a, w uint32) {
	if c.InCompressedRegion(a) {
		if c.fsWord == nil {
			n := (c.compEnd - c.compStart) >> 2
			c.fsWord = make([]uint32, n)
			c.fsOK = make([]uint8, n)
		}
		i := (a - c.compStart) >> 2
		if c.fcdec != nil && c.fsOK[i] != 0 && c.fsWord[i] != w {
			c.fcdec[i].op = pUndecoded
		}
		c.fsWord[i], c.fsOK[i] = w, 1
		return
	}
	if c.fxtra == nil {
		c.fxtra = make(map[uint32]uint32)
	}
	c.fxtra[a] = w
	c.finvalWord(a)
}

// finvalWord drops the decoded record for the word containing addr, if
// any. This is the whole coherence story for self-modifying code: the
// next fetch of that word re-decodes it from its backing store.
func (c *CPU) finvalWord(addr uint32) {
	a := addr &^ 3
	if c.fcdec != nil && c.InCompressedRegion(a) {
		c.fcdec[(a-c.compStart)>>2].op = pUndecoded
		return
	}
	if c.fdec != nil && a >= c.fdBase && a < c.fdEnd {
		c.fdec[(a-c.fdBase)>>2].op = pUndecoded
	}
}

// FStoreSnapshot returns a copy of the functionally materialised code
// words (address -> word). The equivalence battery compares every entry
// against the golden decompressed text.
func (c *CPU) FStoreSnapshot() map[uint32]uint32 {
	out := make(map[uint32]uint32, len(c.fxtra))
	for i, ok := range c.fsOK {
		if ok != 0 {
			out[c.compStart+uint32(i)<<2] = c.fsWord[i]
		}
	}
	for a, w := range c.fxtra {
		out[a] = w
	}
	return out
}

// materialiseLine is the functional hardware decompressor: it writes the
// I-cache-line-sized chunk of golden text holding pc into the functional
// store, as hardwareFill installs it in the I-cache.
func (c *CPU) materialiseLine(pc uint32) error {
	if c.goldenText == nil {
		return fmt.Errorf("cpu: hardware decompression without decompressed text at %#x", pc)
	}
	base := c.IC.LineBase(pc)
	line := c.goldenLine(base)
	for i := 0; i < len(line); i += 4 {
		c.fsPut(base+uint32(i), binary.LittleEndian.Uint32(line[i:]))
	}
	return nil
}

// fstoreData performs a data store's coherence work for every policy:
// handler-RAM predecode patching, decode-store invalidation of the
// stored-to word and the handler recordings' (replay.go): a store fails
// the ReplayCheck of the activation being checked, and a store into
// words a recording loaded from drops them all — O(1) per store. The
// invalidation also keeps fdec true to memory for the detailed engine's
// refills (fillNative).
func (c *CPU) fstoreData(addr uint32) {
	c.noteHandlerStore(addr)
	c.finvalWord(addr)
	if c.rp.open != nil {
		c.rp.open.stored = true
	}
	if addr-c.rp.lo < c.rp.span {
		c.dropRecordings()
	}
}

// plainStore reports whether a data store to addr needs none of
// fstoreData's work: no activation is being checked, and addr lies
// outside handler RAM, the compressed region, the native extent and
// the recordings' loaded span. run writes such a store's page inline.
// Each range is tested by offset, so it inlines.
func (c *CPU) plainStore(addr uint32) bool {
	return c.rp.open == nil && addr-c.handlerPC >= c.handlerLen &&
		addr-c.compStart >= c.compEnd-c.compStart &&
		addr-c.fdBase >= c.fdEnd-c.fdBase && addr-c.rp.lo >= c.rp.span
}
