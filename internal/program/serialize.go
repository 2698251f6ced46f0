package program

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sort"
)

// The on-disk image format is one uncompressed encoding/gob stream
// holding a single imageFile value: the format name and version, then
// the Image's fields. It exists so the command-line tools (ccasm,
// cccompress, simrun) compose into a pipeline. Every run reads it, so
// it has no compression and no text framing: decoding costs about a
// copy of the segment bytes.
//
// Determinism rule: saving the same image always gives the same bytes,
// because run manifests record the SHA-256 of image files and reports
// that embed them are compared byte for byte. gob writes a map in its
// iteration order, so the symbol table is stored as a slice sorted by
// name; every other field is a slice or scalar whose order the Image
// fixes. Decode rejects a symbol table out of that order, so no name
// is silently dropped.

type imageFile struct {
	Format   string
	Version  int
	Entry    uint32
	Segments []*Segment
	Symbols  []symbol // strictly ascending by Name
	Procs    []Procedure
	Relocs   []Reloc
	Compress *CompressionInfo
}

type symbol struct {
	Name string
	Addr uint32
}

const (
	fileFormat  = "clr32-image"
	fileVersion = 2
)

// ErrLegacyImage reports an image file in the version-1 gzip+JSON
// format, which is no longer read.
var ErrLegacyImage = errors.New("program: gzip+JSON image (format version 1) is no longer readable; rebuild it with ccasm or cccompress")

// Encode returns the file bytes of im.
func Encode(im *Image) ([]byte, error) {
	f := imageFile{
		Format: fileFormat, Version: fileVersion, Entry: im.Entry,
		Segments: im.Segments, Procs: im.Procs, Relocs: im.Relocs, Compress: im.Compress,
		Symbols: make([]symbol, 0, len(im.Symbols)),
	}
	for name, addr := range im.Symbols {
		f.Symbols = append(f.Symbols, symbol{name, addr})
	}
	sort.Slice(f.Symbols, func(i, j int) bool { return f.Symbols[i].Name < f.Symbols[j].Name })
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&f); err != nil {
		return nil, fmt.Errorf("program: encoding image: %v", err)
	}
	return buf.Bytes(), nil
}

// Decode parses image file bytes and validates the image.
func Decode(data []byte) (*Image, error) {
	if bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		return nil, ErrLegacyImage
	}
	r := bytes.NewReader(data)
	var f imageFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("program: not an image file: %v", err)
	}
	switch {
	case r.Len() != 0:
		return nil, fmt.Errorf("program: %d bytes after the image", r.Len())
	case f.Format != fileFormat:
		return nil, fmt.Errorf("program: unknown format %q", f.Format)
	case f.Version != fileVersion:
		return nil, fmt.Errorf("program: unsupported version %d", f.Version)
	}
	im := &Image{
		Entry: f.Entry, Segments: f.Segments, Procs: f.Procs, Relocs: f.Relocs, Compress: f.Compress,
		Symbols: make(map[string]uint32, len(f.Symbols)),
	}
	for i, s := range f.Symbols {
		if i > 0 && f.Symbols[i-1].Name >= s.Name {
			return nil, fmt.Errorf("program: symbol table out of order at %q", s.Name)
		}
		im.Symbols[s.Name] = s.Addr
	}
	if err := im.Validate(); err != nil {
		return nil, err
	}
	return im, nil
}

// SaveFile writes the image to path.
func SaveFile(path string, im *Image) error {
	data, err := Encode(im)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o666)
}

// LoadFile reads an image from path.
func LoadFile(path string) (*Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
