package perfwatch

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// TrajectorySchema is the BENCH_*.json file format version. History:
//
//	1 — initial format: {schema_version, host, entries:[{time,
//	    fingerprint, samples:[{workload, version, sim, host}]}]}.
//	    Additive since: samples' procs and fast stanzas, the
//	    fingerprint's codecs. The samples' host stanza (wall times,
//	    allocations) and the fingerprint's go_version, goos, goarch,
//	    gomaxprocs, num_cpu, hostname and reps are no longer written;
//	    the loader ignores them in older entries.
//
// Readers reject files with a newer major version than they understand;
// additive changes (new fields) do not bump the version.
const TrajectorySchema = 1

// Trajectory is the content of one BENCH_<host>.json file: every
// registry run recorded on that host, oldest first.
type Trajectory struct {
	SchemaVersion int     `json:"schema_version"`
	Host          string  `json:"host"`
	Entries       []Entry `json:"entries"`
}

// Latest returns the most recent entry (ok=false when empty).
func (t *Trajectory) Latest() (Entry, bool) {
	if len(t.Entries) == 0 {
		return Entry{}, false
	}
	return t.Entries[len(t.Entries)-1], true
}

// FileName returns the conventional trajectory file name for a host
// label, e.g. "BENCH_ci.json". The label is sanitised so hostnames with
// path-hostile characters stay safe.
func FileName(host string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, host)
	if clean == "" {
		clean = "unknown"
	}
	return "BENCH_" + clean + ".json"
}

// Load reads a trajectory file. A missing file is not an error: it
// returns an empty trajectory for the host derived from the file name,
// so the first `ccbench run` on a new host starts a fresh history.
func Load(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		host := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		return &Trajectory{SchemaVersion: TrajectorySchema, Host: host}, nil
	}
	if err != nil {
		return nil, err
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("perfwatch: %s: %v", path, err)
	}
	if t.SchemaVersion > TrajectorySchema {
		return nil, fmt.Errorf("perfwatch: %s: schema version %d is newer than this binary understands (%d)",
			path, t.SchemaVersion, TrajectorySchema)
	}
	if t.SchemaVersion == 0 {
		return nil, fmt.Errorf("perfwatch: %s: missing schema_version (not a trajectory file?)", path)
	}
	return &t, nil
}

// Append adds an entry and writes the trajectory back atomically
// (temp file + rename), keeping at most keep entries (0 = unlimited).
func (t *Trajectory) Append(path string, e Entry, keep int) error {
	t.SchemaVersion = TrajectorySchema
	t.Entries = append(t.Entries, e)
	if keep > 0 && len(t.Entries) > keep {
		t.Entries = append([]Entry(nil), t.Entries[len(t.Entries)-keep:]...)
	}
	return t.Write(path)
}

// Write saves the trajectory as indented JSON via a temp-file rename.
func (t *Trajectory) Write(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
