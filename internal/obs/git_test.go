package obs

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestGitSHAMatchesGit: outside CI, GitSHA names the same commit as
// `git rev-parse --short=12 HEAD` in the same directory.
func TestGitSHAMatchesGit(t *testing.T) {
	t.Setenv("GITHUB_SHA", "")
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		t.Skipf("git rev-parse: %v (not inside a readable repository)", err)
	}
	if got, want := GitSHA(), strings.TrimSpace(string(out)); got != want {
		t.Fatalf("GitSHA() = %q, git rev-parse says %q", got, want)
	}
	t.Setenv("GITHUB_SHA", "0123456789abcdef0123")
	if got := GitSHA(); got != "0123456789ab" {
		t.Fatalf("with GITHUB_SHA set, GitSHA() = %q", got)
	}
}

// TestGitHeadLayouts reads HEAD from fixture .git layouts: loose and
// packed branch refs, a detached HEAD, gitdir files for submodules and
// linked worktrees, and the cases that name no commit.
func TestGitHeadLayouts(t *testing.T) {
	const (
		a = "aaaaaaaaaaaa1111111111111111111111111111"
		b = "bbbbbbbbbbbb2222222222222222222222222222"
	)
	packed := "# pack-refs with: peeled fully-peeled sorted \n" +
		a + " refs/heads/main\n^" + b + "\n" + b + " refs/tags/v1\n"
	for _, tc := range []struct {
		name  string
		files map[string]string // relative to the fixture root
		start string            // directory GitSHA runs in
		want  string
	}{
		{"loose branch", map[string]string{
			".git/HEAD": "ref: refs/heads/main\n", ".git/refs/heads/main": a + "\n",
		}, ".", a[:12]},
		{"packed branch", map[string]string{
			".git/HEAD": "ref: refs/heads/main\n", ".git/packed-refs": packed,
		}, "src/deep", a[:12]},
		{"loose ref shadows packed", map[string]string{
			".git/HEAD": "ref: refs/heads/main\n", ".git/refs/heads/main": b + "\n", ".git/packed-refs": packed,
		}, ".", b[:12]},
		{"detached", map[string]string{".git/HEAD": b + "\n"}, "src", b[:12]},
		{"gitdir file", map[string]string{
			".git": "gitdir: ../store/mod\n", "../store/mod/HEAD": "ref: refs/heads/main\n",
			"../store/mod/refs/heads/main": a,
		}, ".", a[:12]},
		{"linked worktree", map[string]string{
			".git": "gitdir: ../main/.git/worktrees/wt\n", "../main/.git/worktrees/wt/HEAD": "ref: refs/heads/topic\n",
			"../main/.git/worktrees/wt/commondir": "../..\n", "../main/.git/packed-refs": b + " refs/heads/topic\n",
		}, "sub", b[:12]},
		{"unborn branch", map[string]string{".git/HEAD": "ref: refs/heads/main\n"}, ".", ""},
		{"garbage HEAD", map[string]string{".git/HEAD": "not a commit\n"}, ".", ""},
		{"bad gitdir file", map[string]string{".git": "nonsense\n"}, ".", ""},
		{"no repository below the ceiling", nil, "src", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The fixture repository sits at top/repo. The ceiling is top,
			// so the search never leaves the fixture.
			top := t.TempDir()
			t.Setenv("GIT_CEILING_DIRECTORIES", top)
			root := filepath.Join(top, "repo")
			start := filepath.Join(root, tc.start)
			if err := os.MkdirAll(start, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, body := range tc.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got := gitHead(start); got != tc.want {
				t.Fatalf("gitHead = %q, want %q", got, tc.want)
			}
		})
	}
}
