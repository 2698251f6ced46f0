package mem

import (
	"fmt"
	"sort"
)

// PageState is one backed 64KB page of the serialised memory image.
type PageState struct {
	Index uint32 `json:"index"` // page index (addr >> pageShift)
	Data  []byte `json:"data"`
}

// State is a serialisable snapshot of a Memory: every backed page plus
// the bus traffic counters. Pages are sorted by index so the encoding
// is deterministic. The bus configuration and OnBurst hook are not part
// of the state — they belong to the machine configuration.
type State struct {
	Pages     []PageState `json:"pages"`
	Reads     uint64      `json:"reads"`
	BytesRead uint64      `json:"bytes_read"`
}

// Snapshot captures a deep copy of the memory contents and counters.
func (m *Memory) Snapshot() State {
	st := State{Reads: m.Reads, BytesRead: m.BytesRead}
	for idx, p := range m.pages {
		data := make([]byte, len(p))
		copy(data, p)
		st.Pages = append(st.Pages, PageState{Index: idx, Data: data})
	}
	sort.Slice(st.Pages, func(i, j int) bool { return st.Pages[i].Index < st.Pages[j].Index })
	return st
}

// Restore replaces the memory contents and counters with the snapshot.
// The page cache is cleared (it is a pure cache over the page map). A
// snapshot holding more pages than MaxBacked allows is refused, with
// an ErrBacked error, before anything is copied.
func (m *Memory) Restore(st State) error {
	if len(st.Pages) > MaxBacked/pageSize {
		return fmt.Errorf("%w: snapshot holds %d pages, at most %d fit",
			ErrBacked, len(st.Pages), MaxBacked/pageSize)
	}
	m.pages = make(map[uint32][]byte, len(st.Pages))
	for _, p := range st.Pages {
		if len(p.Data) != pageSize {
			return fmt.Errorf("mem: page %#x has %d bytes, want %d", p.Index, len(p.Data), pageSize)
		}
		data := make([]byte, pageSize)
		copy(data, p.Data)
		m.pages[p.Index] = data
	}
	m.pcache = [8]pageSlot{}
	m.Reads = st.Reads
	m.BytesRead = st.BytesRead
	return nil
}
