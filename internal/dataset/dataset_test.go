package dataset

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"gpuport/internal/opt"
	"gpuport/internal/stats"
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

// TestReadCSVInterleavedTuples loads rows that switch tuple on every
// row, so Add's memo of the latest tuple never hits, and the
// tuple-grouped rows WriteCSV emits, where it almost always does. Each
// row's samples name its tuple and config, so both loads must hold
// every row in its own cell, with equal statistics. A bad row after
// them is still reported by its row number.
func TestReadCSVInterleavedTuples(t *testing.T) {
	tuples := []Tuple{tup("c2", "a", "i"), tup("c1", "b", "i"), tup("c1", "a", "j")}
	configs := opt.All()[:7]
	row := func(ti, ci int) string {
		tp := tuples[ti]
		return fmt.Sprintf("%s,%s,%s,%s,%d,%d\n", tp.Chip, tp.App, tp.Input, configs[ci], ti+1, ci+1)
	}
	grouped := "chip,app,input,config,run1,run2\n"
	interleaved := grouped
	for ti := range tuples {
		for ci := range configs {
			grouped += row(ti, ci)
		}
	}
	for ci := range configs {
		for ti := range tuples {
			interleaved += row(ti, ci)
		}
	}
	var loads [2]*Dataset
	for k, in := range []string{grouped, interleaved} {
		d, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != len(tuples)*len(configs) {
			t.Fatalf("load %d: %d records, want %d", k, d.Len(), len(tuples)*len(configs))
		}
		loads[k] = d
	}
	for ti, tp := range tuples {
		for ci, cfg := range configs {
			want := fmt.Sprint([]float64{float64(ti + 1), float64(ci + 1)})
			var stats [2]Stat
			for k, d := range loads {
				if got := fmt.Sprint(d.Samples(tp, cfg)); got != want {
					t.Errorf("load %d, %v/%v: samples %s, want %s", k, tp, cfg, got, want)
				}
				tid, _ := d.TupleID(tp)
				cid, _ := cfg.ID()
				stats[k], _ = d.Stat(tid, cid)
			}
			if stats[0] != stats[1] {
				t.Errorf("%v/%v: grouped %v, interleaved %v", tp, cfg, stats[0], stats[1])
			}
		}
	}
	bad := interleaved + "c1,a,i,baseline,xx\n"
	n := len(tuples)*len(configs) + 2
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("row %d:", n)) {
		t.Errorf("bad row error %v, want one naming row %d", err, n)
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

// TestConfigsOutsideSpace: a config with no opt ID (an FG value past
// FG8) reads as absent everywhere, and adding it panics naming it.
func TestConfigsOutsideSpace(t *testing.T) {
	d := buildSmall()
	t1 := tup("chipA", "app1", "in1")
	for _, cfg := range []opt.Config{{FG: 3}, {SG: true, FG: 255}} {
		if s := d.Samples(t1, cfg); s != nil {
			t.Errorf("%+v: Samples = %v, want nil", cfg, s)
		}
		if m, ok := d.Mean(t1, cfg); ok {
			t.Errorf("%+v: Mean = %v, present", cfg, m)
		}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("FG=%d", cfg.FG); !strings.Contains(msg, want) {
					t.Errorf("%+v: Add panic %q does not name %s", cfg, msg, want)
				}
			}()
			d.Add(sample(t1, cfg, 1))
		}()
	}
	if c := d.TupleCoverage(t1); c != 3.0/opt.NumConfigs || d.Len() != 5 {
		t.Errorf("rejected adds changed the dataset: coverage %v, len %d", c, d.Len())
	}
}

// TestCellStats: Add caches each cell's mean and 95% CI, bit-identical
// to stats.Mean and stats.CI95 of its samples, and a replacement
// refreshes them; a missing cell has no stats.
func TestCellStats(t *testing.T) {
	d := buildSmall()
	t1 := tup("chipA", "app1", "in1")
	tid, ok := d.TupleID(t1)
	if !ok {
		t.Fatal("TupleID misses an added tuple")
	}
	if _, ok := d.TupleID(tup("chipA", "app1", "zz")); ok {
		t.Error("TupleID found an absent tuple")
	}
	check := func(cfg opt.Config, xs []float64) {
		t.Helper()
		cid, _ := cfg.ID()
		st, ok := d.Stat(tid, cid)
		ci := stats.CI95(xs)
		if !ok || math.Float64bits(st.Mean) != math.Float64bits(stats.Mean(xs)) ||
			math.Float64bits(st.CI.Lo) != math.Float64bits(ci.Lo) || math.Float64bits(st.CI.Hi) != math.Float64bits(ci.Hi) {
			t.Errorf("%v: Stat = %+v, %v; want mean %v, CI %+v", cfg, st, ok, stats.Mean(xs), ci)
		}
	}
	check(opt.Config{SG: true}, []float64{50, 51, 49})
	d.Add(sample(t1, opt.Config{SG: true}, 7, 9))
	check(opt.Config{SG: true}, []float64{7, 9})
	if _, ok := d.Stat(tid, opt.NumConfigs-1); ok {
		t.Error("a missing cell reports stats")
	}
}

// TestInsertionOrders: Tuples is sorted however records arrive, while
// WriteCSV keeps first-insertion row order, a replaced record in place.
func TestInsertionOrders(t *testing.T) {
	d := New()
	keys := []Key{
		{tup("c2", "a", "i"), opt.Config{WG: true}},
		{tup("c1", "b", "i"), opt.Config{}},
		{tup("c1", "a", "j"), opt.Config{SG: true}},
		{tup("c2", "a", "i"), opt.Config{}},
		{tup("c1", "a", "i"), opt.Config{}},
	}
	for i, k := range keys {
		d.Add(Record{Key: k, Samples: []float64{float64(i + 1)}})
	}
	d.Add(Record{Key: keys[1], Samples: []float64{9}})
	want := []Tuple{tup("c1", "a", "i"), tup("c1", "a", "j"), tup("c1", "b", "i"), tup("c2", "a", "i")}
	if got := d.Tuples(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Tuples = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	wantCSV := "chip,app,input,config,run1\n" +
		"c2,a,i,wg,1\nc1,b,i,baseline,9\nc1,a,j,sg,3\nc2,a,i,baseline,4\nc1,a,i,baseline,5\n"
	if buf.String() != wantCSV {
		t.Errorf("CSV =\n%s\nwant\n%s", buf.String(), wantCSV)
	}
}
