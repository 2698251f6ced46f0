package rank

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Property: ByCount matches a stable comparison sort by descending
// count, including many equal counts and zero counts.
func TestQuickMatchesStableSort(t *testing.T) {
	f := func(seed int64, nRaw uint16, spreadRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		counts := make([]int32, int(nRaw)%2048)
		spread := int(spreadRaw)%64 + 1
		for i := range counts {
			counts[i] = int32(r.Intn(spread))
		}
		want := make([]int32, len(counts))
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(i, j int) bool { return counts[want[i]] > counts[want[j]] })
		return reflect.DeepEqual(ByCount(counts), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestByCountExample(t *testing.T) {
	got := ByCount([]int32{2, 3, 2, 1, 3})
	if want := []int32{1, 4, 0, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if got := ByCount(nil); len(got) != 0 {
		t.Fatalf("empty input ranked %v", got)
	}
}
