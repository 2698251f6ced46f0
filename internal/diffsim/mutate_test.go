package diffsim

// Mutation self-check: the harness must detect every shipped injected
// bug within a small, bounded number of generated cases (the acceptance
// bound is 5000; empirically the image mutations are caught on the first
// case, and replay-skip-dcache, which needs a line to fault twice in the
// replay oracle's small I-cache, by the 13th).

import (
	"strings"
	"testing"
)

const detectionBudget = 50 // cases allowed before a mutation counts as missed

func TestMutationsDetected(t *testing.T) {
	for _, m := range Mutations() {
		t.Run(m.Name, func(t *testing.T) {
			sum, err := Run(CampaignConfig{
				Cases:    detectionBudget,
				Mutation: m,
				// clobber-t8 is architecturally invisible under the
				// shadow register file (that is the point of the shadow
				// RF); detection power is asserted on the single-RF side,
				// except for the bugs that show only under the shadow RF.
				ShadowRF:  func(int64) bool { return m.ShadowRF },
				StopAfter: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Findings) == 0 {
				t.Fatalf("mutation %s not detected within %d cases (%d skipped)",
					m.Name, detectionBudget, sum.Skipped)
			}
			f := sum.Findings[0]
			if f.Image != "dict" {
				t.Fatalf("mutation %s attributed to image %q, want dict", m.Name, f.Image)
			}
			t.Logf("%s detected at seed %d: %s", m.Name, f.Seed, f.Reason)
		})
	}
}

// TestMutationDetectionChannels pins each mutation to the oracle that
// should catch it, so a silently weakened oracle fails loudly here.
func TestMutationDetectionChannels(t *testing.T) {
	expect := map[string]string{
		"dict-index-off-by-one": "swic oracle",          // wrong word materialised
		"drop-swic":             "handler failed",       // line never filled
		"clobber-t8":            "register $t8 differs", // leaked handler scratch
		"replay-skip-dcache":    "replay:",              // replayed machine drifts
	}
	for _, m := range Mutations() {
		sum, err := Run(CampaignConfig{
			Cases:     detectionBudget,
			Mutation:  m,
			ShadowRF:  func(int64) bool { return m.ShadowRF },
			StopAfter: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Findings) == 0 {
			t.Fatalf("%s: not detected", m.Name)
		}
		if want := expect[m.Name]; !strings.Contains(sum.Findings[0].Reason, want) {
			t.Errorf("%s: detected via %q, expected the %q channel",
				m.Name, sum.Findings[0].Reason, want)
		}
	}
}

// TestClobberT8InvisibleUnderShadowRF is the negative control: with the
// shadow register file the handler's $t8 write never reaches user
// state, so the same mutation must NOT be reported.
func TestClobberT8InvisibleUnderShadowRF(t *testing.T) {
	sum, err := Run(CampaignConfig{
		Cases:    10,
		Mutation: MutationByName("clobber-t8"),
		ShadowRF: func(int64) bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Findings) != 0 {
		t.Fatalf("clobber-t8 reported under ShadowRF: %+v (the shadow RF should hide it)",
			sum.Findings[0])
	}
	if sum.Skipped != 0 {
		t.Fatalf("%d cases inconclusive", sum.Skipped)
	}
}
