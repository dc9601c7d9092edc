package tracecache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gpuport/internal/irgl"
)

// FuzzEntryDecode feeds arbitrary bytes to the entry verifier/decoder.
// Every input the store could ever read off disk - including truncated,
// bit-flipped and outright hostile files - must either decode cleanly
// or be rejected with an error; a panic here would let one damaged
// cache file kill a whole measurement campaign. When an input is
// accepted, re-encoding the trace through the store's own writer must
// reach a fixed point: the canonical entry decodes to a trace whose
// canonical encoding is byte-identical. The committed corpus in
// testdata/fuzz holds real entry files (written through Store.Put) plus
// damaged variants. Runs bounded in CI (make fuzz).
func FuzzEntryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(HeaderMagic))
	f.Add([]byte(HeaderMagic + " 1 deadbeef 4\nabcd"))
	// A minimal well-formed entry, built with the store's own writer.
	payload := []byte(`{"app":"bfs-wl","input":"fz","launches":[]}`)
	f.Add(AppendEntry(nil, payload))

	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := decodeEntry(raw)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		p1 := tr.AppendJSONCompact(nil)
		tr2, err := decodeEntry(AppendEntry(nil, p1))
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if p2 := tr2.AppendJSONCompact(nil); !bytes.Equal(p1, p2) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\n%s", p1, p2)
		}
	})
}

// FuzzCutEntry holds the cutter that walks a file of concatenated
// entries (a sweep checkpoint) to the appender. Every input it accepts
// starts with a header whose length and SHA-256 describe the returned
// payload, and appending that payload as an entry, then the returned
// rest, reproduces the input byte for byte; every input it rejects
// returns an error wrapping ErrCorrupt. Runs bounded in CI (make fuzz).
func FuzzCutEntry(f *testing.F) {
	two := AppendEntry(AppendEntry(nil, []byte("campaign")), []byte("c,a,i,baseline,1.5\n"))
	f.Add(two)
	f.Add(two[:len(two)-3])                                     // a torn last entry
	f.Add(append(two[:len(two):len(two)], 0, 0, 0, 0, 0, 0, 0)) // a zero tail
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		payload, rest, err := CutEntry(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		fields := strings.Fields(string(raw[:bytes.IndexByte(raw, '\n')]))
		sum := sha256.Sum256(payload)
		if fields[2] != hex.EncodeToString(sum[:]) || fields[3] != strconv.Itoa(len(payload)) {
			t.Fatalf("header %q does not describe the %d-byte payload", fields, len(payload))
		}
		if got := append(AppendEntry(nil, payload), rest...); !bytes.Equal(got, raw) {
			t.Fatalf("re-encoding differs from the input:\n%q\n%q", got, raw)
		}
	})
}

// TestValidCorpusEntriesDecode holds the decoder to entries it did not
// write: every valid-* file in the fuzz corpus is an entry written by
// Store.Put while encoding/json was the trace codec and every launch
// still carried a LocalBarrierRounds field, since retired. The strict
// decoder must refuse each stored entry, which is how Get heals a
// pre-change cache entry. With the field's bytes removed, each payload
// must decode to the trace encoding/json decodes from it, and re-encode
// to it byte for byte. FuzzEntryDecode alone would pass a decoder that
// rejects everything.
func TestValidCorpusEntriesDecode(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzEntryDecode/valid-*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no valid corpus entries (%v)", err)
	}
	for _, path := range paths {
		raw := readCorpusBytes(t, path)
		stored, err := verifyEntry(raw)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := decodeEntry(raw); err == nil || errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decodeEntry = %v, want the decoder to refuse the retired field", path, err)
		}
		payload := bytes.ReplaceAll(stored, []byte(`,"LocalBarrierRounds":0`), nil)
		if len(payload) == len(stored) {
			t.Errorf("%s: no retired field in the stored payload", path)
		}
		tr, err := decodeEntry(AppendEntry(nil, payload))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		var ref struct {
			App      string             `json:"app"`
			Input    string             `json:"input"`
			Launches []irgl.KernelStats `json:"launches"`
			Loops    []irgl.LoopStats   `json:"loops"`
		}
		if err := json.Unmarshal(payload, &ref); err != nil {
			t.Fatalf("%s: encoding/json: %v", path, err)
		}
		want := &irgl.Trace{App: ref.App, Input: ref.Input, Launches: ref.Launches, Loops: ref.Loops}
		if !reflect.DeepEqual(tr, want) {
			t.Errorf("%s: decodes differently from encoding/json", path)
		}
		if len(tr.Launches) == 0 || len(tr.Loops) == 0 {
			t.Errorf("%s: %d launches, %d loops: want a populated trace", path, len(tr.Launches), len(tr.Loops))
		}
		if got := tr.AppendJSONCompact(nil); !bytes.Equal(got, payload) {
			t.Errorf("%s: re-encoding differs from the payload", path)
		}
	}
}

// readCorpusBytes returns the one []byte value of a "go test fuzz v1"
// corpus file.
func readCorpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte corpus file", path)
	}
	v, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(v)
}
