// Package session owns the run pipeline that simrun, ccprof and the rtd
// run helpers share (minicc builds its machine here too). It resolves a run target and records its bytes in
// the manifest once; builds the machine (an image loaded on a fresh CPU,
// or a checkpoint applied); holds the one mode × observer legality
// table (legal.go); drives the functional tier and encodes the fast
// tiers' JSON reports; and writes the manifest sidecar at exit. The CLIs
// keep their flags and their text printers.
package session

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Session is one CLI run: its provenance manifest, its machine
// configuration and where the simulated program writes.
type Session struct {
	Manifest *obs.Manifest
	Config   cpu.Config
	// Out receives the simulated program's output: stdout, or stderr
	// when stdout carries a machine-readable report.
	Out     io.Writer
	sidecar string
	start   time.Time
	// stages is the host split the sidecar records: the time to each
	// EndStage call from the one before (or from New), by stage.
	stages []obs.Stage
	mark   time.Time
}

// New starts tool's session on the paper's machine with an icacheKB
// I-cache and a maxInstr budget (the -icache and -max flags), the
// I-cache size recorded in the manifest. sidecar, when not empty, is
// where Finish writes the manifest.
func New(tool string, icacheKB int, maxInstr uint64, sidecar string, out io.Writer) *Session {
	now := time.Now()
	s := &Session{Manifest: obs.New(tool), Config: cpu.DefaultConfig(), Out: out,
		sidecar: sidecar, start: now, mark: now}
	s.Config.ICache.SizeBytes = icacheKB * 1024
	s.Config.MaxInstr = maxInstr
	s.Manifest.SetConfig("icache_kb", fmt.Sprint(icacheKB))
	return s
}

// The stages a run goes through, as EndStage names them.
const (
	StageRead      = "read"      // read and decode (or build) the target
	StageCompress  = "compress"  // compress it, after any profiling run
	StageLoad      = "load"      // build the machine: cpu.New, observers, cpu.Load
	StageRun       = "run"       // run it
	StageAttribute = "attribute" // verify and assemble attribution and reports
	StageWrite     = "write"     // write the reports; Finish ends it
)

// EndStage charges the wall time since the last EndStage call (or New)
// to stage. Open, Restore and Machine end their own stages; a CLI ends
// the others.
func (s *Session) EndStage(stage string) {
	now := time.Now()
	ms := float64(now.Sub(s.mark).Microseconds()) / 1e3
	s.mark = now
	for i := range s.stages {
		if s.stages[i].Name == stage {
			s.stages[i].Ms += ms
			return
		}
	}
	s.stages = append(s.stages, obs.Stage{Name: stage, Ms: ms})
}

// Finish ends the write stage, stamps the wall time and its split by
// stage and writes the sidecar manifest, when the session has one; a
// failed write ends the process through log.Fatal, so a CLI defers
// Finish right after New.
func (s *Session) Finish() {
	if s.sidecar == "" {
		return
	}
	s.EndStage(StageWrite)
	s.Manifest.Finish(s.start, s.stages...)
	if err := s.Manifest.Write(s.sidecar); err != nil {
		log.Fatal(err)
	}
}

// Target is a resolved run input.
type Target struct {
	Image *program.Image
	Name  string // the name reports and the manifest give it
	Seed  int64  // the synthetic generator's seed; 0 for a file
	// Encoded reports that Image was decoded unchanged from the file
	// bytes the manifest recorded (program.Encode of a decoded image
	// gives back the bytes it was decoded from).
	Encoded bool
}

// Scheme names the target image's compression scheme, or "native".
func (t *Target) Scheme() string {
	if t.Image.Compress == nil {
		return "native"
	}
	return string(t.Image.Compress.Scheme)
}

// Open resolves a file target: an assembly (.s) or MiniC (.mc) source,
// or an image file. The file is read once; its bytes are recorded in
// the manifest under name and built or decoded from that one read, so
// the digest, computed only when a manifest is emitted, describes what
// ran.
func (s *Session) Open(path, name string) (*Target, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s.Manifest.AddInput(name, data)
	t := &Target{Name: name}
	switch {
	case strings.HasSuffix(path, ".s"):
		t.Image, err = asm.Assemble(string(data))
	case strings.HasSuffix(path, ".mc"):
		t.Image, err = minic.Compile(string(data))
	default:
		t.Image, err = program.Decode(data)
		t.Encoded = true
	}
	if err != nil {
		return nil, err
	}
	s.EndStage(StageRead)
	return t, nil
}

// Bench resolves a synthetic benchmark target, its dynamic length
// multiplied by scale.
func Bench(name string, scale float64) (*Target, error) {
	p, ok := synth.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", name)
	}
	if scale > 0 && scale != 1 {
		p = p.Scale(scale)
	}
	im, err := synth.Build(p)
	if err != nil {
		return nil, err
	}
	return &Target{Image: im, Name: name, Seed: p.Seed}, nil
}

// RecordRunImage records the image the run executes as the manifest's
// "run-image" input. An image file run unchanged reuses the digest its
// bytes have; a built or compressed image is encoded and hashed once.
func (s *Session) RecordRunImage(t *Target) error {
	if !t.Encoded {
		return s.Manifest.AddImage("run-image", t.Image)
	}
	s.Manifest.Digest()
	in := s.Manifest.Inputs[len(s.Manifest.Inputs)-1]
	in.Name = "run-image"
	s.Manifest.Inputs = append(s.Manifest.Inputs, in)
	return nil
}

// Machine builds a machine for im: cpu.New under cfg, then each attach
// in order (observers install their hooks before the image loads), the
// simulated program's output to out, then cpu.Load.
func Machine(cfg cpu.Config, im *program.Image, out io.Writer, attach ...func(*cpu.CPU)) (*cpu.CPU, error) {
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, a := range attach {
		a(c)
	}
	c.Out = out
	if err := c.Load(im); err != nil {
		return nil, err
	}
	return c, nil
}

// Machine builds the session's machine for im with the attached
// observers.
func (s *Session) Machine(im *program.Image, attach ...func(*cpu.CPU)) (*cpu.CPU, error) {
	c, err := Machine(s.Config, im, s.Out, attach...)
	s.EndStage(StageLoad)
	return c, err
}

// Restore rebuilds the machine the checkpoint file at path holds. Its
// configuration is the checkpointed one: the session's -icache and -max
// do not apply, and the manifest records the checkpoint's I-cache size.
// The file is read once and its bytes recorded under path.
func (s *Session) Restore(path string) (*cpu.CPU, error) {
	ck, data, err := fastpath.Load(path)
	if err != nil {
		return nil, err
	}
	s.Manifest.AddInput(path, data)
	s.Manifest.SetConfig("icache_kb", strconv.FormatFloat(float64(ck.Config.ICache.SizeBytes)/1024, 'g', -1, 64))
	s.EndStage(StageRead)
	c, err := ck.Apply()
	if err != nil {
		return nil, err
	}
	c.Out = s.Out
	s.EndStage(StageLoad)
	return c, nil
}

// Observers are what an exact run attaches to the machine.
type Observers struct {
	Collector *telemetry.Collector
	Recorder  *profile.Recorder
	Ring      *trace.Ring
}

// Attach installs the observers on c. A collector drives the recorder
// from its own commit hook.
func (o Observers) Attach(c *cpu.CPU) {
	if o.Collector != nil {
		o.Collector.Recorder = o.Recorder
		o.Collector.Attach(c)
	} else if o.Recorder != nil {
		o.Recorder.Attach(c)
	}
	if o.Ring != nil {
		o.Ring.Attach(c)
	}
}

// Capture runs c for at user instructions on the detailed engine (none
// when at is 0), then saves a checkpoint of it to path with the
// session's provenance. The program must not halt first.
func (s *Session) Capture(c *cpu.CPU, path string, at uint64) error {
	if at > 0 {
		halted, err := c.RunDetailedFor(at)
		if err != nil {
			return err
		}
		if halted {
			return fmt.Errorf("program halted after %d user instructions, before the -checkpoint-at %d point", c.Stats.Instrs, at)
		}
	}
	return fastpath.Capture(c, s.Manifest).Save(path)
}

// FunctionalReport is the functional tier's report. Its JSON members
// are in the key order `simrun -mode functional -json` prints.
type FunctionalReport struct {
	Exceptions    uint64        `json:"exceptions"`
	ExitCode      int32         `json:"exit_code"`
	HandlerInstrs uint64        `json:"handler_instrs"`
	HostSeconds   float64       `json:"host_seconds"`
	Instrs        uint64        `json:"instrs"`
	MIPS          float64       `json:"mips"`
	Mode          Mode          `json:"mode"`
	Program       string        `json:"program"`
	Host          time.Duration `json:"-"`
}

// RunFunctional runs c to the end on the functional engine and reports
// its work and host time under the program name.
func RunFunctional(c *cpu.CPU, program string) (*FunctionalReport, error) {
	start := time.Now()
	code, err := fastpath.Functional(c)
	host := time.Since(start)
	if err != nil {
		return nil, err
	}
	return &FunctionalReport{
		Exceptions:    c.FStats.Exceptions,
		ExitCode:      code,
		HandlerInstrs: c.FStats.HandlerInstrs,
		HostSeconds:   host.Seconds(),
		Instrs:        c.FStats.Instrs,
		MIPS:          float64(c.FStats.Instrs) / 1e6 / host.Seconds(),
		Mode:          Functional,
		Program:       program,
		Host:          host,
	}, nil
}

// WriteJSON writes v as indented JSON: the fast tiers' report format.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
