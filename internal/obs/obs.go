// Package obs is the host-side observability substrate shared by every
// CLI: structured slog logging with a common schema, run manifests
// (provenance: input hashes, registered codecs, config, git SHA,
// timings) written next to artifacts and embedded in telemetry reports,
// and a rate-limited progress reporter (TTY status line or non-TTY
// heartbeat log) for long campaigns.
//
// obs is deliberately outside the deterministic package set checked by
// cccheck detsafe: it reads wall clocks, the environment and the tty —
// none of which may influence simulated results. Everything obs writes
// into deterministic artifacts (the manifest's Provenance form) is
// timing-free; wall-clock timings only appear in sidecar files.
package obs

import (
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// NewLogger returns the shared structured logger: text (or JSON when
// RTD_LOG=json) to w with a `tool` attribute on every record, so multi-
// tool pipelines produce greppable, schema-consistent logs. nil w means
// stderr.
func NewLogger(tool string, w io.Writer) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	var h slog.Handler
	if os.Getenv("RTD_LOG") == "json" {
		h = slog.NewJSONHandler(w, nil)
	} else {
		h = slog.NewTextHandler(w, nil)
	}
	return slog.New(h).With("tool", tool)
}

// GitSHA is a best-effort commit id for manifests and fingerprints:
// GITHUB_SHA in CI, otherwise the HEAD commit of the git repository
// around the working directory as `git rev-parse --short=12 HEAD` names
// it, otherwise empty. The repository is read directly rather than by
// running git, which would cost every CLI start a few milliseconds.
func GitSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		if len(sha) > 12 {
			sha = sha[:12]
		}
		return sha
	}
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	return gitHead(wd)
}

// gitHead returns the first 12 hex digits of the HEAD commit of the
// repository dir belongs to, or "" when there is none.
func gitHead(dir string) string {
	gitDir, commonDir := findGitDir(dir)
	if gitDir == "" {
		return ""
	}
	sha := resolveHEAD(gitDir, commonDir)
	if len(sha) < 12 || strings.Trim(sha, "0123456789abcdef") != "" {
		return ""
	}
	return sha[:12]
}

// findGitDir finds the repository dir belongs to the way git does: the
// nearest .git at or above dir, a directory or a "gitdir: <path>" file
// (linked worktrees and submodules), without climbing into a directory
// listed in GIT_CEILING_DIRECTORIES. commonDir is where a linked
// worktree's shared refs live (gitDir itself otherwise).
func findGitDir(dir string) (gitDir, commonDir string) {
	ceilings := filepath.SplitList(os.Getenv("GIT_CEILING_DIRECTORIES"))
	for {
		dot := filepath.Join(dir, ".git")
		if fi, err := os.Stat(dot); err == nil {
			gitDir = dot
			if !fi.IsDir() {
				data, err := os.ReadFile(dot)
				rest, ok := strings.CutPrefix(strings.TrimSpace(string(data)), "gitdir: ")
				if err != nil || !ok {
					return "", ""
				}
				if gitDir = rest; !filepath.IsAbs(gitDir) {
					gitDir = filepath.Join(dir, gitDir)
				}
			}
			commonDir = gitDir
			if data, err := os.ReadFile(filepath.Join(gitDir, "commondir")); err == nil {
				if commonDir = strings.TrimSpace(string(data)); !filepath.IsAbs(commonDir) {
					commonDir = filepath.Join(gitDir, commonDir)
				}
			}
			return gitDir, commonDir
		}
		parent := filepath.Dir(dir)
		if parent == dir || slices.Contains(ceilings, parent) {
			return "", ""
		}
		dir = parent
	}
}

// resolveHEAD follows HEAD (in gitDir) through symbolic refs to a commit
// id, reading each ref it names as a loose file in commonDir or from
// commonDir's packed-refs.
func resolveHEAD(gitDir, commonDir string) string {
	ref := "HEAD"
	for depth := 0; depth < 5; depth++ {
		dir := commonDir
		if ref == "HEAD" {
			dir = gitDir
		}
		data, err := os.ReadFile(filepath.Join(dir, filepath.FromSlash(ref)))
		if err != nil {
			return packedRef(commonDir, ref)
		}
		val := strings.TrimSpace(string(data))
		target, ok := strings.CutPrefix(val, "ref: ")
		if !ok {
			return val
		}
		ref = target
	}
	return ""
}

// packedRef looks ref up in packed-refs: "<id> <ref>" lines after an
// optional "# pack-refs" header, each possibly followed by a "^<id>"
// peeled line.
func packedRef(commonDir, ref string) string {
	data, err := os.ReadFile(filepath.Join(commonDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if id, name, ok := strings.Cut(strings.TrimSpace(line), " "); ok && name == ref {
			return id
		}
	}
	return ""
}
