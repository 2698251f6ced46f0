package cmdtest

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/program"
)

// TestSavedImagesReencodeIdentically checks that every image file the
// CLIs save decodes and re-encodes to the same bytes: ccasm's native
// images of testdata/*.s and of a benchmark stand-in, and cccompress's
// image of each under every scheme. ccprof relies on it when it records
// the digest of a run image read unchanged from a file: the file's
// digest is the digest of the image's encoding.
func TestSavedImagesReencodeIdentically(t *testing.T) {
	dir := t.TempDir()
	run := func(tool string, args ...string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(binDir, tool), args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
		}
	}
	srcs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.s"))
	if err != nil || len(srcs) == 0 {
		t.Fatalf("no corpus programs found: %v", err)
	}
	var natives []string
	for _, src := range srcs {
		img := filepath.Join(dir, filepath.Base(src)+".img")
		run("ccasm", "-o", img, src)
		natives = append(natives, img)
	}
	bench := filepath.Join(dir, "pegwit.img")
	run("ccasm", "-bench", "pegwit", "-scale", "0.05", "-o", bench)
	natives = append(natives, bench)
	saved := append([]string(nil), natives...)
	for _, img := range natives {
		for _, scheme := range [][]string{{"dict", "-rf"}, {"dict"}, {"codepack"}, {"procdict"}, {"copy"}} {
			out := img + "." + scheme[0] + ".img"
			if len(scheme) > 1 {
				out = img + "." + scheme[0] + "-rf.img"
			}
			run("cccompress", append(append([]string{"-scheme"}, scheme...), "-o", out, img)...)
			saved = append(saved, out)
		}
	}
	for _, path := range saved {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		im, err := program.Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		again, err := program.Encode(im)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("%s: re-encoding gives %d bytes that differ from the %d saved", filepath.Base(path), len(again), len(b))
		}
	}
}

// TestRunImageDigest checks the manifest's run-image entry: an image
// file run as it is has its file's digest; compressed by -scheme it is
// the digest of the compressed image's encoding.
func TestRunImageDigest(t *testing.T) {
	dir := t.TempDir()
	inputs := func(args ...string) map[string]string {
		t.Helper()
		man := filepath.Join(dir, "run.manifest.json")
		args = append(append([]string{"-o", filepath.Join(dir, "report.txt"), "-manifest", man}, args...), imgPath)
		cmd := exec.Command(filepath.Join(binDir, "ccprof"), args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("ccprof %v: %v\n%s", args, err, out)
		}
		raw, err := os.ReadFile(man)
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Inputs []struct {
				Name   string `json:"name"`
				SHA256 string `json:"sha256"`
			} `json:"inputs"`
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, in := range m.Inputs {
			out[in.Name] = in.SHA256
		}
		return out
	}
	file := filepath.Base(imgPath)
	plain := inputs()
	if plain["run-image"] == "" || plain["run-image"] != plain[file] {
		t.Errorf("unchanged image: run-image digest %q, file %s digest %q; want equal", plain["run-image"], file, plain[file])
	}
	im, err := program.LoadFile(imgPath)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := program.Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plain[file], digest(enc); got != want {
		t.Errorf("file digest %s, digest of the image's encoding %s", got, want)
	}
	compressed := inputs("-scheme", "dict")
	if compressed["run-image"] == "" || compressed["run-image"] == compressed[file] {
		t.Errorf("-scheme dict: run-image digest %q equals the native file's %q", compressed["run-image"], compressed[file])
	}
}
