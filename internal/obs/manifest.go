package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/program"
)

// ManifestSchema versions the manifest shape. History:
//
//	1 — initial shape (PR 8): tool/args/runtime identity, registered
//	    codecs, input digests, config map, optional timings. The
//	    optional timings.stages split came later without a bump:
//	    readers of schema 1 skip it.
const ManifestSchema = 1

// CodecInfo records one registered codec at run time. The registry has
// no version field, so the Describe line doubles as the behavioural
// fingerprint — it names the algorithm and its parameters.
type CodecInfo struct {
	Name     string `json:"name"`
	Describe string `json:"describe"`
}

// Input is one content-hashed run input (a source/image file or an
// in-memory built image).
type Input struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Timings is the wall-clock stanza — sidecar manifests only, never the
// provenance copy embedded in deterministic reports.
type Timings struct {
	Start  string `json:"start"` // RFC3339, UTC
	WallMs int64  `json:"wall_ms"`
	// Stages splits the wall time by the stages a run session went
	// through, in the order each first ended.
	Stages []Stage `json:"stages,omitempty"`
}

// Stage is one stage of a run and the wall time spent in it, in
// milliseconds.
type Stage struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// Manifest is the run manifest: enough provenance to tell exactly what
// produced an artifact — tool and arguments, toolchain identity, every
// registered codec, content hashes of the inputs, the effective config,
// the git SHA — plus (in sidecar form) when and how long it ran.
type Manifest struct {
	SchemaVersion int      `json:"schema_version"`
	Tool          string   `json:"tool"`
	Args          []string `json:"args,omitempty"`

	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GitSHA    string `json:"git_sha,omitempty"`

	Codecs []CodecInfo       `json:"codecs"`
	Inputs []Input           `json:"inputs,omitempty"`
	Config map[string]string `json:"config,omitempty"`

	Timings *Timings `json:"timings,omitempty"`

	// unhashed holds the bytes of the inputs AddInput recorded that
	// Digest has not hashed yet, by index in Inputs.
	unhashed map[int][]byte
}

// New captures the current process: tool name, command-line arguments,
// toolchain identity, git SHA and the codec registry (sorted by name,
// as codec.All guarantees).
func New(tool string) *Manifest {
	m := &Manifest{
		SchemaVersion: ManifestSchema,
		Tool:          tool,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		GitSHA:        GitSHA(),
	}
	if len(os.Args) > 1 {
		m.Args = append(m.Args, os.Args[1:]...)
	}
	for _, c := range codec.All() {
		m.Codecs = append(m.Codecs, CodecInfo{Name: c.Name(), Describe: c.Describe()})
	}
	return m
}

// SetConfig records one effective-config key (flag values, scheme,
// window size, ...). Emission is sorted by key, so the map is safe.
func (m *Manifest) SetConfig(key, value string) {
	if m.Config == nil {
		m.Config = map[string]string{}
	}
	m.Config[key] = value
}

// AddInput records the bytes of one run input (a source or image file,
// as read) under name. Its digest waits for the first use that needs
// it (Digest), so a run that emits no manifest never hashes its inputs.
func (m *Manifest) AddInput(name string, data []byte) {
	if m.unhashed == nil {
		m.unhashed = map[int][]byte{}
	}
	m.unhashed[len(m.Inputs)] = data
	m.Inputs = append(m.Inputs, Input{Name: name, Bytes: int64(len(data))})
}

// Digest content-hashes every input recorded and not hashed yet.
// Write, Provenance and Validate call it; code that reads Inputs
// itself calls it first.
func (m *Manifest) Digest() {
	for i, data := range m.unhashed {
		h := sha256.Sum256(data)
		m.Inputs[i].SHA256 = hex.EncodeToString(h[:])
	}
	m.unhashed = nil
}

// AddImage content-hashes an in-memory program image via its file
// encoding (program.Encode, the bytes program.SaveFile writes), which
// is deterministic, so the digest is stable across processes and equals
// the digest of the image's file. It hashes at once: encoding is
// already the larger cost.
func (m *Manifest) AddImage(name string, im *program.Image) error {
	data, err := program.Encode(im)
	if err != nil {
		return fmt.Errorf("obs: hashing image %s: %v", name, err)
	}
	m.AddInput(name, data)
	m.Digest()
	return nil
}

// Finish stamps the sidecar timing stanza from a start time and the
// stages timed since, if any.
func (m *Manifest) Finish(start time.Time, stages ...Stage) {
	m.Timings = &Timings{
		Start:  start.UTC().Format(time.RFC3339),
		WallMs: time.Since(start).Milliseconds(),
		Stages: stages,
	}
}

// Provenance returns a timing-free copy for embedding in deterministic
// artifacts (telemetry reports, trajectory fingerprints): two identical
// runs embed bit-identical provenance, which the emitter byte-identity
// battery relies on.
func (m *Manifest) Provenance() *Manifest {
	m.Digest()
	cp := *m
	cp.Timings = nil
	cp.Args = append([]string(nil), m.Args...)
	cp.Codecs = append([]CodecInfo(nil), m.Codecs...)
	cp.Inputs = append([]Input(nil), m.Inputs...)
	if m.Config != nil {
		cp.Config = make(map[string]string, len(m.Config))
		for k, v := range m.Config {
			cp.Config[k] = v
		}
	}
	return &cp
}

// Validate checks the schema-bearing fields a consumer relies on,
// once every input is hashed.
func (m *Manifest) Validate() error {
	m.Digest()
	switch {
	case m.SchemaVersion != ManifestSchema:
		return fmt.Errorf("obs: manifest schema %d, want %d", m.SchemaVersion, ManifestSchema)
	case m.Tool == "":
		return fmt.Errorf("obs: manifest has no tool")
	case m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "":
		return fmt.Errorf("obs: manifest missing toolchain identity")
	case len(m.Codecs) == 0:
		return fmt.Errorf("obs: manifest lists no codecs")
	}
	if !sort.SliceIsSorted(m.Codecs, func(a, b int) bool { return m.Codecs[a].Name < m.Codecs[b].Name }) {
		return fmt.Errorf("obs: manifest codecs not sorted by name")
	}
	for _, in := range m.Inputs {
		if len(in.SHA256) != 64 {
			return fmt.Errorf("obs: input %s: malformed sha256 %q", in.Name, in.SHA256)
		}
	}
	return nil
}

// PathFor returns the sidecar manifest path for an artifact: the
// artifact path with .manifest.json appended.
func PathFor(artifact string) string { return artifact + ".manifest.json" }

// Write writes the manifest as indented JSON to path.
func (m *Manifest) Write(path string) error {
	m.Digest()
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads and validates a manifest file.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: %s: %v", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
