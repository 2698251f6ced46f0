package cache

import "fmt"

// LineState is one serialised cache line.
type LineState struct {
	Valid bool   `json:"valid"`
	Tag   uint32 `json:"tag"`
	LRU   uint64 `json:"lru"`
	Data  []byte `json:"data,omitempty"` // nil for caches that track presence only
}

// State is a serialisable snapshot of a Cache: geometry, every line
// (set-major, way-minor — a deterministic order), the LRU clock and the
// event counters. The MRU hint is not part of the state; it is a pure
// cache over the sets and is rebuilt on the first access after Restore.
type State struct {
	Config Config        `json:"config"`
	Clock  uint64        `json:"clock"`
	Stats  Stats         `json:"stats"`
	Sets   [][]LineState `json:"sets"`
}

// Snapshot captures a deep copy of the cache state.
func (c *Cache) Snapshot() State {
	st := State{Config: c.cfg, Clock: c.clock, Stats: c.Stats}
	st.Sets = make([][]LineState, c.cfg.Sets())
	for s := range st.Sets {
		ways := make([]LineState, c.cfg.Ways)
		for w := range ways {
			i := s*c.cfg.Ways + w
			ln := &c.lines[i]
			ls := LineState{Valid: ln.valid, Tag: ln.tag, LRU: ln.lru}
			if ln.stored {
				ls.Data = make([]byte, c.cfg.LineBytes)
				copy(ls.Data, c.data(i))
			}
			ways[w] = ls
		}
		st.Sets[s] = ways
	}
	return st
}

// Restore replaces the cache contents with the snapshot. The geometry
// must match this cache's configuration; the MRU hint and every line's
// derived bit are cleared.
func (c *Cache) Restore(st State) error {
	if st.Config != c.cfg {
		return fmt.Errorf("cache: snapshot geometry %+v does not match cache %+v", st.Config, c.cfg)
	}
	if len(st.Sets) != c.cfg.Sets() {
		return fmt.Errorf("cache: snapshot has %d sets, cache %d", len(st.Sets), c.cfg.Sets())
	}
	for s := range st.Sets {
		if len(st.Sets[s]) != c.cfg.Ways {
			return fmt.Errorf("cache: snapshot set %d has %d ways, cache %d", s, len(st.Sets[s]), c.cfg.Ways)
		}
		for w := range st.Sets[s] {
			ls := st.Sets[s][w]
			i := s*c.cfg.Ways + w
			ln := &c.lines[i]
			ln.valid = ls.Valid
			ln.derived = false
			ln.tag = ls.Tag
			ln.lru = ls.LRU
			if ls.Data != nil {
				if len(ls.Data) != c.cfg.LineBytes {
					return fmt.Errorf("cache: snapshot line %d/%d has %d bytes, want %d",
						s, w, len(ls.Data), c.cfg.LineBytes)
				}
				if c.store == nil {
					c.store = make([]byte, len(c.lines)*c.cfg.LineBytes)
				}
				copy(c.data(i), ls.Data)
			}
			ln.stored = ls.Data != nil
		}
	}
	c.clock = st.Clock
	c.Stats = st.Stats
	c.mruIdx, c.mruSlot = 0, -1
	return nil
}
