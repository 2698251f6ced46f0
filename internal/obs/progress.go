package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"
)

// Reporter is a rate-limited progress reporter for long campaigns
// (experiments, ccbench, ccfuzz): on a TTY it redraws a single status
// line; on a pipe/CI it emits a structured heartbeat log line every few
// seconds. Step is cheap enough to call per shard — renders are rate
// limited, not the calls. Reporters only touch stderr/logs, never a
// deterministic output stream.
type Reporter struct {
	mu       sync.Mutex
	label    string
	w        io.Writer
	log      *slog.Logger
	tty      bool
	interval time.Duration
	started  time.Time
	last     time.Time
	done     int
	total    int
	detail   string
	stepped  bool
	finished bool
}

// NewReporter returns a reporter labelled label, writing TTY status
// lines to w (nil = stderr) and heartbeats to log (nil = a NewLogger on
// w). TTY detection is on w.
func NewReporter(label string, w io.Writer, log *slog.Logger) *Reporter {
	if w == nil {
		w = os.Stderr
	}
	tty := false
	if f, ok := w.(*os.File); ok {
		if fi, err := f.Stat(); err == nil {
			tty = fi.Mode()&os.ModeCharDevice != 0
		}
	}
	if log == nil {
		log = NewLogger(label, w)
	}
	interval := 5 * time.Second
	if tty {
		interval = 100 * time.Millisecond
	}
	return &Reporter{label: label, w: w, log: log, tty: tty,
		interval: interval, started: time.Now()}
}

// Step records progress (done of total, with an optional detail such as
// the current shard name) and renders if the rate limit allows.
func (r *Reporter) Step(done, total int, detail string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done, r.total, r.detail = done, total, detail
	r.stepped = true
	now := time.Now()
	if now.Sub(r.last) < r.interval {
		return
	}
	r.last = now
	r.render(false)
}

// Done renders the final state: a newline-terminated TTY line or a
// summary log record with the elapsed wall time. A reporter that never
// saw a Step stays silent — there was no campaign to summarise.
func (r *Reporter) Done() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished || !r.stepped {
		return
	}
	r.finished = true
	r.render(true)
}

func (r *Reporter) render(final bool) {
	if r.tty {
		pct := 0.0
		if r.total > 0 {
			pct = 100 * float64(r.done) / float64(r.total)
		}
		line := fmt.Sprintf("\r%s %d/%d (%.0f%%) %s", r.label, r.done, r.total, pct, r.detail)
		// Pad to clear the previous, possibly longer, line.
		fmt.Fprintf(r.w, "%-79s", line)
		if final {
			fmt.Fprintln(r.w)
		}
		return
	}
	msg := "progress"
	if final {
		msg = "done"
	}
	r.log.Info(msg, "label", r.label, "done", r.done, "total", r.total,
		"detail", r.detail, "elapsed_ms", time.Since(r.started).Milliseconds())
}
