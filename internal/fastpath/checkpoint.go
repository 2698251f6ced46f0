// Package fastpath is the simulator's fast tier: full-machine-state
// checkpoints, whole-run functional execution, and SMARTS-style sampled
// simulation that alternates the functional and detailed engines to
// estimate CPI with confidence intervals at a fraction of the detailed
// host cost.
//
// The package composes state the core packages own: cpu.MachineState,
// mem.State, cache.State and bpred.State each capture one layer, and a
// Checkpoint binds them together under a schema-versioned, checksummed
// on-disk envelope carrying an obs.Manifest provenance stanza.
package fastpath

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/obs"
)

// CheckpointSchema is the on-disk checkpoint format version. Bump it on
// any incompatible change and record the change in docs/performance.md
// (checkpoint format changelog).
const CheckpointSchema = 1

// Apply sizes structures by a checkpoint's geometry, so it bounds what
// a checkpoint may declare. MaxCheckpointCacheBytes bounds each cache
// (the CPU's predecode store grows with the I-cache; the paper's
// machines use 1–64 KB). The compressed code region is bounded by the
// machine's own cpu.MaxCompressedRegion, which cpu.Load enforces on
// images.
const MaxCheckpointCacheBytes = 1 << 20

// ErrInvalidCheckpoint classifies Apply's refusals of a checkpoint that
// describes a machine no run could have produced.
var ErrInvalidCheckpoint = errors.New("fastpath: invalid checkpoint")

// Checkpoint is a complete simulated-machine state: configuration,
// core (registers, HI/LO, CP0, statistics, functional code store),
// memory image, both caches (including swic-written I-cache lines) and
// the branch predictor. Applying it reproduces the source machine
// bit-identically: a resumed run retires the same instructions and
// charges the same cycles as the uninterrupted one.
type Checkpoint struct {
	SchemaVersion int `json:"schema_version"`
	// Manifest is the timing-free provenance stanza of the run that
	// captured the checkpoint (tool, arguments, inputs, code version).
	Manifest *obs.Manifest    `json:"manifest,omitempty"`
	Config   cpu.Config       `json:"config"`
	Machine  cpu.MachineState `json:"machine"`
	Memory   mem.State        `json:"memory"`
	ICache   cache.State      `json:"icache"`
	DCache   cache.State      `json:"dcache"`
	Bpred    bpred.State      `json:"bpred"`
}

// Capture snapshots the machine. man, when non-nil, contributes its
// timing-free provenance stanza; the CPU keeps running unaffected (all
// snapshots are deep copies).
func Capture(c *cpu.CPU, man *obs.Manifest) *Checkpoint {
	ck := &Checkpoint{
		SchemaVersion: CheckpointSchema,
		Config:        c.Cfg,
		Machine:       c.CaptureState(),
		Memory:        c.Mem.Snapshot(),
		ICache:        c.IC.Snapshot(),
		DCache:        c.DC.Snapshot(),
		Bpred:         c.BP.Snapshot(),
	}
	if man != nil {
		ck.Manifest = man.Provenance()
	}
	return ck
}

// Apply builds a fresh CPU in exactly the checkpointed state. No image
// load is needed (or possible): memory, caches, predictor and core
// state all come from the checkpoint; derived caches (predecode, the
// functional decode caches) are rebuilt. A checkpoint is untrusted
// input: Apply refuses forged geometry (see checkGeometry) with an
// error wrapping ErrInvalidCheckpoint before it allocates anything by
// it.
func (ck *Checkpoint) Apply() (*cpu.CPU, error) {
	if ck.SchemaVersion != CheckpointSchema {
		return nil, fmt.Errorf("fastpath: checkpoint schema v%d, this build supports v%d",
			ck.SchemaVersion, CheckpointSchema)
	}
	if err := ck.checkConfig(); err != nil {
		return nil, err
	}
	c, err := cpu.New(ck.Config)
	if err != nil {
		return nil, fmt.Errorf("fastpath: checkpoint config: %v", err)
	}
	if err := c.Mem.Restore(ck.Memory); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidCheckpoint, err)
	}
	if err := c.IC.Restore(ck.ICache); err != nil {
		return nil, fmt.Errorf("fastpath: I-cache: %v", err)
	}
	if err := c.DC.Restore(ck.DCache); err != nil {
		return nil, fmt.Errorf("fastpath: D-cache: %v", err)
	}
	if err := c.BP.Restore(ck.Bpred); err != nil {
		return nil, fmt.Errorf("fastpath: %v", err)
	}
	if err := ck.checkGeometry(c.Mem); err != nil {
		return nil, err
	}
	// After memory: RestoreState re-predecodes handler RAM from it.
	c.RestoreState(ck.Machine)
	return c, nil
}

func invalid(format string, a ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidCheckpoint, fmt.Sprintf(format, a...))
}

// checkConfig refuses a configuration cpu.New would panic on or size
// beyond the cache bound, or a predictor its snapshot contradicts (the
// file bounds the snapshot; cache snapshots Restore checks).
func (ck *Checkpoint) checkConfig() error {
	cfg := ck.Config
	if cfg.ICache.SizeBytes > MaxCheckpointCacheBytes || cfg.DCache.SizeBytes > MaxCheckpointCacheBytes {
		return invalid("I-cache %d or D-cache %d bytes exceeds %d", cfg.ICache.SizeBytes, cfg.DCache.SizeBytes, MaxCheckpointCacheBytes)
	}
	if n := len(ck.Bpred.Table); n != cfg.PredictorEntries || n&(n-1) != 0 || n == 0 {
		return invalid("predictor of %d entries, snapshot of %d: want one power of two", cfg.PredictorEntries, n)
	}
	if cfg.Bus.WidthBytes <= 0 {
		return invalid("bus width %d bytes", cfg.Bus.WidthBytes)
	}
	return nil
}

// checkGeometry refuses core state whose geometry would index out of
// range or size an allocation: a register bank other than 0 or 1; a
// handler extent that starts unaligned, is reversed or is not backed by
// memory (handler RAM is predecoded word by word; an end of 0 with a
// nonzero start is RAM ending at 2^32); a compressed region
// that is unaligned (the functional store indexes it by word), reversed
// or larger than cpu.MaxCompressedRegion; a functional-store word outside
// the I-cache lines of that region.
func (ck *Checkpoint) checkGeometry(m *mem.Memory) error {
	st := ck.Machine
	if uint(st.Bank) > 1 || uint(st.SavedBank) > 1 {
		return invalid("register bank %d, saved bank %d (want 0 or 1)", st.Bank, st.SavedBank)
	}
	if h, e := st.HandlerPC, st.HandlerEnd; (h != 0 || e != 0) && (h&3 != 0 || e != 0 && h >= e || !m.BackedRange(h, e-1) || !m.Backed(e-1)) {
		return invalid("handler extent [%#x, %#x) is not word-aligned, ordered and backed by memory", h, e)
	}
	s, e := st.CompStart, st.CompEnd
	if s&3 != 0 || e&3 != 0 || s > e || e-s > cpu.MaxCompressedRegion {
		return invalid("compressed region [%#x, %#x) is not word-aligned, ordered and at most %d bytes", s, e, cpu.MaxCompressedRegion)
	}
	line := uint32(ck.Config.ICache.LineBytes)
	lo, hi := s&^(line-1), (e-1)&^(line-1)+line
	for _, fw := range st.FStore {
		if fw.Addr&3 != 0 || e == s || fw.Addr-lo >= hi-lo {
			return invalid("functional-store word at %#x outside the compressed region [%#x, %#x)", fw.Addr, s, e)
		}
	}
	return nil
}

// envelope is the on-disk frame around the checkpoint payload: the
// schema version is readable without parsing the (large) payload, and
// the digest refuses corrupt or truncated files before any state is
// deserialised.
type envelope struct {
	SchemaVersion int             `json:"schema_version"`
	SHA256        string          `json:"sha256"`
	Checkpoint    json.RawMessage `json:"checkpoint"`
}

// Save writes the checkpoint to path: a JSON envelope holding the
// schema version, the SHA-256 of the payload bytes, and the payload.
// The encoding is deterministic (no map-ordered fields), so identical
// machine states produce identical files.
func (ck *Checkpoint) Save(path string) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("fastpath: encode checkpoint: %v", err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(envelope{
		SchemaVersion: ck.SchemaVersion,
		SHA256:        hex.EncodeToString(sum[:]),
		Checkpoint:    payload,
	})
	if err != nil {
		return fmt.Errorf("fastpath: encode envelope: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("fastpath: %v", err)
	}
	return nil
}

// Load reads a checkpoint from path and returns it with the file's
// bytes, refusing unparseable files, schema mismatches (the error names
// both versions) and payloads whose digest does not match (corruption
// or truncation).
func Load(path string) (*Checkpoint, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("fastpath: %v", err)
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, nil, fmt.Errorf("fastpath: %s: not a checkpoint file: %v", path, err)
	}
	if env.SchemaVersion != CheckpointSchema {
		return nil, nil, fmt.Errorf("fastpath: %s: checkpoint schema v%d, this build supports v%d",
			path, env.SchemaVersion, CheckpointSchema)
	}
	sum := sha256.Sum256(env.Checkpoint)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, nil, fmt.Errorf("fastpath: %s: payload digest mismatch (file corrupt or truncated)", path)
	}
	var ck Checkpoint
	if err := json.Unmarshal(env.Checkpoint, &ck); err != nil {
		return nil, nil, fmt.Errorf("fastpath: %s: decode checkpoint: %v", path, err)
	}
	if ck.SchemaVersion != CheckpointSchema {
		return nil, nil, fmt.Errorf("fastpath: %s: checkpoint schema v%d, this build supports v%d",
			path, ck.SchemaVersion, CheckpointSchema)
	}
	return &ck, data, nil
}
