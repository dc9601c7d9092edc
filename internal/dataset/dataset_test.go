package dataset

import (
	"bytes"
	"strings"
	"testing"

	"gpuport/internal/opt"
)

func sample(t Tuple, cfg opt.Config, xs ...float64) Record {
	return Record{Key: Key{t, cfg}, Samples: xs}
}

func tup(c, a, i string) Tuple { return Tuple{Chip: c, App: a, Input: i} }

func buildSmall() *Dataset {
	d := New()
	t1 := tup("chipA", "app1", "in1")
	t2 := tup("chipB", "app1", "in1")
	d.Add(sample(t1, opt.Config{}, 100, 101, 99))
	d.Add(sample(t1, opt.Config{SG: true}, 50, 51, 49))
	d.Add(sample(t1, opt.Config{WG: true}, 200, 201, 199))
	d.Add(sample(t2, opt.Config{}, 10, 10, 10))
	d.Add(sample(t2, opt.Config{SG: true}, 20, 21, 19))
	return d
}

func TestAddAndQuery(t *testing.T) {
	d := buildSmall()
	if d.Len() != 5 {
		t.Fatalf("len = %d", d.Len())
	}
	s := d.Samples(tup("chipA", "app1", "in1"), opt.Config{SG: true})
	if len(s) != 3 || s[0] != 50 {
		t.Errorf("samples = %v", s)
	}
	if s := d.Samples(tup("nope", "x", "y"), opt.Config{}); s != nil {
		t.Errorf("missing key should return nil, got %v", s)
	}
	m, ok := d.Mean(tup("chipB", "app1", "in1"), opt.Config{})
	if !ok || m != 10 {
		t.Errorf("mean = %v, %v", m, ok)
	}
}

func TestAddReplaces(t *testing.T) {
	d := buildSmall()
	n := d.Len()
	d.Add(sample(tup("chipA", "app1", "in1"), opt.Config{}, 500))
	if d.Len() != n {
		t.Errorf("replacement changed len to %d", d.Len())
	}
	m, _ := d.Mean(tup("chipA", "app1", "in1"), opt.Config{})
	if m != 500 {
		t.Errorf("replacement not applied: %v", m)
	}
}

func TestDimensions(t *testing.T) {
	d := buildSmall()
	if got := d.Chips(); len(got) != 2 || got[0] != "chipA" {
		t.Errorf("chips = %v", got)
	}
	if got := d.Apps(); len(got) != 1 {
		t.Errorf("apps = %v", got)
	}
	if got := d.Inputs(); len(got) != 1 {
		t.Errorf("inputs = %v", got)
	}
}

func TestTuplesSortedAndDistinct(t *testing.T) {
	d := buildSmall()
	tuples := d.Tuples()
	if len(tuples) != 2 {
		t.Fatalf("tuples = %v", tuples)
	}
	if tuples[0].Chip != "chipA" || tuples[1].Chip != "chipB" {
		t.Errorf("tuples unsorted: %v", tuples)
	}
	filtered := d.TuplesWhere(func(tp Tuple) bool { return tp.Chip == "chipB" })
	if len(filtered) != 1 || filtered[0].Chip != "chipB" {
		t.Errorf("filtered = %v", filtered)
	}
}

func TestBestConfig(t *testing.T) {
	d := buildSmall()
	cfg, mean, ok := d.BestConfig(tup("chipA", "app1", "in1"))
	if !ok || !cfg.SG || mean != 50 {
		t.Errorf("best = %v %v %v", cfg, mean, ok)
	}
	// chipB's baseline is fastest.
	cfg, _, ok = d.BestConfig(tup("chipB", "app1", "in1"))
	if !ok || !cfg.IsBaseline() {
		t.Errorf("chipB best = %v", cfg)
	}
	if _, _, ok := d.BestConfig(tup("none", "x", "y")); ok {
		t.Error("missing tuple should report !ok")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := buildSmall()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip len %d, want %d", got.Len(), d.Len())
	}
	for _, tp := range d.Tuples() {
		for _, cfg := range opt.All() {
			want := d.Samples(tp, cfg)
			have := got.Samples(tp, cfg)
			if len(want) != len(have) {
				t.Fatalf("%v/%v: %v vs %v", tp, cfg, want, have)
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("%v/%v sample %d: %v vs %v", tp, cfg, i, want[i], have[i])
				}
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "a,b,c\n1,2,3\n",
		"bad config":   "chip,app,input,config,run1\nc,a,i,zzz,1\n",
		"bad float":    "chip,app,input,config,run1\nc,a,i,baseline,xx\n",
		"no samples":   "chip,app,input,config,run1\nc,a,i,baseline,\n",
		"neg sample":   "chip,app,input,config,run1\nc,a,i,baseline,-5\n",
		"nan sample":   "chip,app,input,config,run1\nc,a,i,baseline,NaN\n",
		"inf sample":   "chip,app,input,config,run1\nc,a,i,baseline,+Inf\n",
		"short record": "chip,app,input,config,run1\nc,a\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCSVHeaderRunColumns(t *testing.T) {
	d := New()
	d.Add(sample(tup("c", "a", "i"), opt.Config{}, 1, 2, 3, 4))
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(buf.String(), "\n", 2)[0]
	if first != "chip,app,input,config,run1,run2,run3,run4" {
		t.Errorf("header = %q", first)
	}
}

func TestRecordMean(t *testing.T) {
	r := sample(tup("c", "a", "i"), opt.Config{}, 2, 4, 6)
	if r.Mean() != 4 {
		t.Errorf("mean = %v", r.Mean())
	}
}

func TestTupleString(t *testing.T) {
	if got := tup("c", "a", "i").String(); got != "c/a/i" {
		t.Errorf("tuple string = %q", got)
	}
}
