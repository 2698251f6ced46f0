package session

import (
	"flag"
	"log"
	"os"
	"slices"
)

// Mode is an execution tier. Each may start from a checkpoint instead
// of an image (Request.Restore); an exact run that does is the restored
// mode.
type Mode string

const (
	Exact      Mode = "exact"      // the detailed engine: every cycle
	Functional Mode = "functional" // architectural execution only, no timing
	Sampled    Mode = "sampled"    // detailed windows between functional fast-forward
)

// Observer is a set of things a run attaches to the machine or takes
// from it.
type Observer uint8

const (
	Attribution Observer = 1 << iota // per-line and per-procedure cost (profile.Recorder)
	Telemetry                        // CPI stack, histograms, events, windows (telemetry.Collector)
	TraceRing                        // the last N commits (trace.Ring)
	Capture                          // a checkpoint taken during the run
	Compare                          // a second image run for the slowdown
)

// Observing collects the observers whose flags are set.
func Observing(flags map[Observer]bool) Observer {
	var o Observer
	for obs, on := range flags {
		if on {
			o |= obs
		}
	}
	return o
}

// Request is what a CLI asks of one run, in the legality table's terms.
type Request struct {
	Tool      string // the CLI, whose flag names the refusals quote
	Mode      Mode
	Restore   bool // the machine comes from a checkpoint
	Observers Observer
	Targets   int // positional arguments given
}

// rule is one row of the legality table. It applies to a request from
// tool whose mode is among modes (nil: any mode), that resumes a
// checkpoint if restored is set, and that has every observer in with and
// at least one in refuse; it then refuses the request with why. A
// targets row applies instead when the request names the wrong number of
// run targets, and refuses with the usage alone.
type rule struct {
	tool     string
	modes    []Mode
	restored bool
	with     Observer
	refuse   Observer
	targets  bool
	why      string
}

// legality is the one mode × observer table. Rows are checked in order
// and the first that applies refuses the request; a request no row
// refuses is legal.
var legality = []rule{
	{tool: "simrun", modes: []Mode{Functional, Sampled}, refuse: Capture,
		why: "-checkpoint requires -mode exact (the fast tiers have no complete timing state to save)"},
	{tool: "simrun", restored: true, refuse: Compare,
		why: "-restore and -compare are mutually exclusive"},
	{tool: "simrun", targets: true},
	{tool: "simrun", modes: []Mode{Functional}, refuse: Compare | Attribution | TraceRing | Telemetry,
		why: "-mode functional supports none of -compare/-profile/-trace/-telemetry (detailed-engine observers)"},
	{tool: "simrun", modes: []Mode{Sampled}, refuse: Compare | Attribution | TraceRing | Telemetry,
		why: "-mode sampled supports none of -compare/-profile/-trace/-telemetry (detailed-engine observers)"},
	{tool: "ccprof", modes: []Mode{Sampled}, refuse: Attribution | Telemetry,
		why: "-mode sampled supports only -format text/json (no trace/attribution observers)"},
	{tool: "simrun", with: Capture, refuse: Compare,
		why: "-checkpoint and -compare are mutually exclusive"},
	{tool: "simrun", restored: true, refuse: Attribution | TraceRing | Telemetry,
		why: "-restore supports only -stats observers (the image identity -profile/-trace/-telemetry/-json need is not part of a checkpoint)"},
	{tool: "simrun", restored: true, refuse: Capture,
		why: "-restore and -checkpoint are mutually exclusive (a resumed run saves no checkpoint)"},
}

// refusal returns the reason the first applicable row gives, and
// whether one applies.
func (r Request) refusal() (string, bool) {
	for _, row := range legality {
		if row.tool != r.Tool || row.restored && !r.Restore ||
			row.modes != nil && !slices.Contains(row.modes, r.Mode) {
			continue
		}
		if row.targets {
			if r.Targets != r.wantTargets() {
				return "", true
			}
		} else if r.Observers&row.with == row.with && r.Observers&row.refuse != 0 {
			return row.why, true
		}
	}
	return "", false
}

// wantTargets is the number of run targets the request names: none for
// a checkpoint, two images to compare, else one.
func (r Request) wantTargets() int {
	switch {
	case r.Restore:
		return 0
	case r.Observers&Compare != 0:
		return 2
	}
	return 1
}

// Check refuses an illegal request through Usage.
func (r Request) Check() {
	if why, refused := r.refusal(); refused {
		Usage(why)
	}
}

// Usage is the CLIs' answer to a malformed invocation: it prints why,
// when there is a reason, then the flag usage, and exits 2.
func Usage(why string) {
	if why != "" {
		log.Print(why)
	}
	flag.Usage()
	os.Exit(2)
}
