package irgl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpuport/internal/graph"
)

// traceJSON and the encoding/json calls over it are the codec that
// json.go replaced, kept as the reference the hand-written one is held
// to.
type traceJSON struct {
	App      string        `json:"app"`
	Input    string        `json:"input"`
	Launches []KernelStats `json:"launches"`
	Loops    []LoopStats   `json:"loops,omitempty"`
}

func refCompact(t *Trace) ([]byte, error) {
	return json.Marshal(traceJSON{t.App, t.Input, t.Launches, t.Loops})
}

func refIndented(t *Trace) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(traceJSON{t.App, t.Input, t.Launches, t.Loops})
	return buf.Bytes(), err
}

func refDecode(data []byte) (*Trace, error) {
	var tj traceJSON
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&tj); err != nil {
		return nil, err
	}
	for i, l := range tj.Launches {
		if l.Items < 0 || l.TotalWork < 0 {
			return nil, fmt.Errorf("launch %d has negative counters", i)
		}
	}
	return &Trace{App: tj.App, Input: tj.Input, Launches: tj.Launches, Loops: tj.Loops}, nil
}

// sampleTrace runs a small worklist application with a host loop, so
// the trace has several launches, a populated histogram and a loop.
func sampleTrace() *Trace {
	g := graph.GenerateUniform("json-g", 300, 5, 7)
	rt := NewRuntime("json-app", g)
	wl := NewWorklist(300)
	wl.SeedHost(0)
	rt.Iterate("loop", func(iter int) bool {
		k := rt.Launch("kernel")
		k.ForAll(wl.Items(), func(it *Item, u int32) {
			dst, _ := it.Edges(u)
			for _, v := range dst {
				it.Push(wl, v)
			}
		})
		k.End()
		wl.Swap()
		return iter < 2
	})
	return rt.Trace()
}

func TestTraceJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Any JSON whitespace between tokens reads the same.
	loose := strings.NewReplacer("\n", "\r\n", "  ", "\t", ":", " : ").Replace(buf.String())
	for name, data := range map[string][]byte{"indented": buf.Bytes(), "loose": []byte(loose)} {
		got, err := ReadTraceJSON(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("%s: round trip changed the trace", name)
		}
	}
}

func TestTraceJSONCompactRoundTrip(t *testing.T) {
	tr := sampleTrace()
	raw := tr.AppendJSONCompact(nil)
	if bytes.ContainsRune(raw, '\n') {
		t.Error("compact encoding should be a single line")
	}
	got, err := ReadTraceJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Error("compact round trip changed the trace")
	}
}

func TestReadTraceJSONErrors(t *testing.T) {
	launch := string((&KernelStats{Name: "k", Items: 1}).appendJSON(nil))
	valid := `{"app":"a","input":"i","launches":[` + launch + `]}`
	if _, err := ReadTraceJSON([]byte(valid)); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	negative := (&Trace{App: "a", Input: "i", Launches: []KernelStats{{Name: "k", Items: -5}}}).AppendJSONCompact(nil)
	if _, err := ReadTraceJSON(negative); err == nil || !strings.Contains(err.Error(), "negative counters") {
		t.Errorf("negative Items: err = %v, want the counter check", err)
	}
	bs := `\`
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"bad JSON", "{nope"},
		{"top-level null", "null"},
		{"missing key", strings.Replace(valid, `,"RandomAccesses":0`, "", 1)},
		{"retired key", strings.Replace(valid, `"RandomAccesses":0}`, `"RandomAccesses":0,"LocalBarrierRounds":0}`, 1)},
		{"unknown key", strings.Replace(valid, `"input":"i"`, `"input":"i","extra":1`, 1)},
		{"duplicate key", strings.Replace(valid, `"app":"a"`, `"app":"a","app":"b"`, 1)},
		{"reordered keys", strings.Replace(valid, `"app":"a","input":"i"`, `"input":"i","app":"a"`, 1)},
		{"key case", strings.Replace(valid, `"Items"`, `"items"`, 1)},
		{"fraction", strings.Replace(valid, `"Items":1`, `"Items":1.5`, 1)},
		{"exponent", strings.Replace(valid, `"Items":1`, `"Items":1e3`, 1)},
		{"leading zero", strings.Replace(valid, `"Items":1`, `"Items":01`, 1)},
		{"plus sign", strings.Replace(valid, `"Items":1`, `"Items":+1`, 1)},
		{"string counter", strings.Replace(valid, `"Items":1`, `"Items":"1"`, 1)},
		{"out of range", strings.Replace(valid, `"MaxWork":0`, `"MaxWork":9223372036854775808`, 1)},
		{"out of range negative", strings.Replace(valid, `"MaxWork":0`, `"MaxWork":-9223372036854775809`, 1)},
		{"short histogram", strings.Replace(valid, `"WorkHist":[0,`, `"WorkHist":[`, 1)},
		{"long histogram", strings.Replace(valid, `"WorkHist":[0,`, `"WorkHist":[0,0,`, 1)},
		{"null launch", `{"app":"a","input":"i","launches":[null]}`},
		{"null name", `{"app":null,"input":"i","launches":null}`},
		{"trailing comma", `{"app":"a","input":"i","launches":[` + launch + `,]}`},
		{"trailing bytes", valid + "x"},
		{"second value", valid + "{}"},
		{"unterminated string", `{"app":"a`},
		{"control byte", "{\"app\":\"a\x01\",\"input\":\"i\",\"launches\":null}"},
		{"invalid UTF-8", "{\"app\":\"a\xff\",\"input\":\"i\",\"launches\":null}"},
		{"bad escape", `{"app":"a` + bs + `x","input":"i","launches":null}`},
		{"short unicode escape", `{"app":"a` + bs + `u12","input":"i","launches":null}`},
		{"surrogate escape", `{"app":"a` + bs + `ud800","input":"i","launches":null}`},
	} {
		if tr, err := ReadTraceJSON([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, tr)
		}
	}
}

// FuzzTraceJSON holds the hand-written codec to encoding/json. Every
// input ReadTraceJSON accepts, encoding/json decodes to a deeply equal
// trace. A trace whose names come from the fuzzer - markup, quotes,
// backslashes, control bytes, invalid UTF-8, U+2028 - encodes to the
// bytes json.Marshal writes, WriteJSON to those of an Encoder with
// SetIndent("", "  "), and ReadTraceJSON reads both back as
// encoding/json does. Runs bounded in CI (make fuzz).
func FuzzTraceJSON(f *testing.F) {
	sample := sampleTrace()
	var indented bytes.Buffer
	if err := sample.WriteJSON(&indented); err != nil {
		f.Fatal(err)
	}
	bs := `\`
	for _, raw := range []string{
		string(sample.AppendJSONCompact(nil)),
		indented.String(),
		`{"app":"a","input":"i","launches":null}`,
		`{"app":"a","input":"i","launches":[],"loops":[]}`,
		`{"app":"a","input":"i","launches":null,"loops":null}`,
		`{"app":"` + bs + `u00e9` + bs + `/` + bs + `"` + bs + `u0000","input":"i","launches":null}`,
	} {
		f.Add([]byte(raw), "bfs_relax", int64(7))
	}
	for _, name := range []string{
		"", "<a&b>", `q"u\o`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f", "bad\xff\xfe\xc3", "sep\xe2\x80\xa8\xe2\x80\xa9",
		"\xef\xbf\xbd", "caf\xc3\xa9 \xe6\x97\xa5",
	} {
		f.Add([]byte(nil), name, int64(-1)<<63)
	}

	f.Fuzz(func(t *testing.T, raw []byte, name string, n int64) {
		if _, err := ReadTraceJSON(raw); err == nil {
			checkAgainstReference(t, raw)
		}
		launch := KernelStats{Name: name, LoopID: int(n), Items: 3, TotalWork: n & (1<<62 - 1), MaxWork: n}
		launch.WorkHist[0], launch.WorkHistSum[WorkHistBuckets-1] = n, -n
		for _, tr := range []*Trace{
			{App: name, Input: name + "-in", Launches: []KernelStats{launch, {Name: "k2"}}, Loops: []LoopStats{{ID: int(n), Name: name, Iterations: n, Launches: 2}}},
			{App: name, Input: "i"},
			{App: "a", Input: name, Launches: []KernelStats{}, Loops: []LoopStats{}},
		} {
			compact := tr.AppendJSONCompact(nil)
			if want, err := refCompact(tr); err != nil || !bytes.Equal(compact, want) {
				t.Fatalf("AppendJSONCompact differs from json.Marshal (%v):\n got %q\nwant %q", err, compact, want)
			}
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if want, err := refIndented(tr); err != nil || !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("WriteJSON differs from the indenting Encoder (%v):\n got %q\nwant %q", err, buf.Bytes(), want)
			}
			checkAgainstReference(t, compact)
			checkAgainstReference(t, buf.Bytes())
		}
	})
}

// checkAgainstReference fails unless ReadTraceJSON and encoding/json
// both accept data and decode deeply equal traces.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadTraceJSON(data)
	if err != nil {
		t.Fatalf("ReadTraceJSON rejected %q: %v", data, err)
	}
	want, err := refDecode(data)
	if err != nil {
		t.Fatalf("encoding/json rejects what ReadTraceJSON accepts: %v\n%q", err, data)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodes differ on %q:\n got %+v\nwant %+v", data, got, want)
	}
}
