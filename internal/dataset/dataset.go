// Package dataset holds the study's empirical data: timed samples for
// every (chip, application, input, configuration) combination, with
// indexing, querying and CSV round-tripping.
//
// The full study is 6 chips x 17 applications x 3 inputs x 96
// configurations x 3 runs = 88,128 timings.
package dataset

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"gpuport/internal/opt"
)

// Tuple identifies one test: a chip, application, input triple (the
// paper's "(application, input, chip)" unit).
type Tuple struct {
	Chip  string
	App   string
	Input string
}

// String renders the tuple for reports.
func (t Tuple) String() string {
	return fmt.Sprintf("%s/%s/%s", t.Chip, t.App, t.Input)
}

// Key identifies one measured cell: a tuple under a configuration.
type Key struct {
	Tuple
	Config opt.Config
}

// Record is the measured data for one key.
type Record struct {
	Key
	// Samples holds the timed runs (model nanoseconds).
	Samples []float64
}

// Mean returns the arithmetic mean of the samples.
func (r *Record) Mean() float64 {
	s := 0.0
	for _, x := range r.Samples {
		s += x
	}
	return s / float64(len(r.Samples))
}

// Dataset is the indexed collection of records.
type Dataset struct {
	records []Record
	index   map[Key]int

	chips  []string
	apps   []string
	inputs []string
}

// New returns an empty dataset.
func New() *Dataset {
	return &Dataset{index: make(map[Key]int)}
}

// Add inserts or replaces the record for its key.
func (d *Dataset) Add(rec Record) {
	if i, ok := d.index[rec.Key]; ok {
		d.records[i] = rec
		return
	}
	d.index[rec.Key] = len(d.records)
	d.records = append(d.records, rec)
	d.chips = addUnique(d.chips, rec.Chip)
	d.apps = addUnique(d.apps, rec.App)
	d.inputs = addUnique(d.inputs, rec.Input)
}

func addUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.records) }

// Chips, Apps and Inputs return the dimension values in insertion order.
func (d *Dataset) Chips() []string  { return append([]string(nil), d.chips...) }
func (d *Dataset) Apps() []string   { return append([]string(nil), d.apps...) }
func (d *Dataset) Inputs() []string { return append([]string(nil), d.inputs...) }

// Samples returns the timed runs for a key, or nil when absent.
func (d *Dataset) Samples(t Tuple, cfg opt.Config) []float64 {
	if i, ok := d.index[Key{t, cfg}]; ok {
		return d.records[i].Samples
	}
	return nil
}

// Mean returns the mean runtime for a key, or NaN-free 0 with ok=false
// when absent.
func (d *Dataset) Mean(t Tuple, cfg opt.Config) (float64, bool) {
	if i, ok := d.index[Key{t, cfg}]; ok {
		return d.records[i].Mean(), true
	}
	return 0, false
}

// Tuples returns all distinct tuples in deterministic order.
func (d *Dataset) Tuples() []Tuple {
	seen := map[Tuple]bool{}
	var out []Tuple
	for _, r := range d.records {
		if !seen[r.Tuple] {
			seen[r.Tuple] = true
			out = append(out, r.Tuple)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Chip != out[j].Chip {
			return out[i].Chip < out[j].Chip
		}
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Input < out[j].Input
	})
	return out
}

// TuplesWhere returns tuples passing the filter, in the same order as
// Tuples.
func (d *Dataset) TuplesWhere(keep func(Tuple) bool) []Tuple {
	var out []Tuple
	for _, t := range d.Tuples() {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// BestConfig returns the configuration with the lowest mean runtime for
// the tuple (the per-tuple oracle) and that runtime.
func (d *Dataset) BestConfig(t Tuple) (opt.Config, float64, bool) {
	best := opt.Config{}
	bestTime := 0.0
	found := false
	for _, cfg := range opt.All() {
		m, ok := d.Mean(t, cfg)
		if !ok {
			continue
		}
		if !found || m < bestTime {
			best, bestTime, found = cfg, m, true
		}
	}
	return best, bestTime, found
}

// TupleCoverage returns the fraction of the configuration grid that has
// data for the tuple (1 for a fully swept tuple, 0 for an absent one).
func (d *Dataset) TupleCoverage(t Tuple) float64 {
	configs := opt.All()
	have := 0
	for _, cfg := range configs {
		if _, ok := d.index[Key{t, cfg}]; ok {
			have++
		}
	}
	return float64(have) / float64(len(configs))
}

// Coverage returns the fraction of the chips x apps x inputs x configs
// grid spanned by the dataset's own dimensions that has data. Note this
// is relative to the dimensions the dataset knows about: a chip that
// produced no records at all does not shrink Coverage - the collection
// report (internal/measure) is the authoritative account of the
// intended sweep.
func (d *Dataset) Coverage() float64 {
	grid := len(d.chips) * len(d.apps) * len(d.inputs) * len(opt.All())
	if grid == 0 {
		return 1
	}
	return float64(len(d.records)) / float64(grid)
}

// MissingCells lists every (tuple, config) hole in the grid spanned by
// the dataset's dimensions, in dimension insertion order then config
// order. A complete dataset returns nil.
func (d *Dataset) MissingCells() []Key {
	var out []Key
	configs := opt.All()
	for _, ch := range d.chips {
		for _, app := range d.apps {
			for _, in := range d.inputs {
				t := Tuple{Chip: ch, App: app, Input: in}
				for _, cfg := range configs {
					if _, ok := d.index[Key{t, cfg}]; !ok {
						out = append(out, Key{t, cfg})
					}
				}
			}
		}
	}
	return out
}

// WriteCSV serialises the dataset: header then one row per record with
// samples in fixed columns.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	maxSamples := 0
	for _, r := range d.records {
		if len(r.Samples) > maxSamples {
			maxSamples = len(r.Samples)
		}
	}
	if err := cw.Write(Header(maxSamples)); err != nil {
		return err
	}
	for _, r := range d.records {
		if err := cw.Write(FormatRecord(r)); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV deserialises a dataset written by WriteCSV.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	head := rows[0]
	if len(head) < 5 || head[0] != "chip" || head[3] != "config" {
		return nil, fmt.Errorf("dataset: unexpected header %v", head)
	}
	d := New()
	for i, row := range rows[1:] {
		rec, err := ParseRecord(row)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", i+2, err)
		}
		d.Add(rec)
	}
	return d, nil
}

// Header is the dataset CSV header for rows of up to runs samples:
// chip, app, input, config, then run1..runN.
func Header(runs int) []string {
	h := make([]string, 0, 4+runs)
	h = append(h, "chip", "app", "input", "config")
	for i := 0; i < runs; i++ {
		h = append(h, fmt.Sprintf("run%d", i+1))
	}
	return h
}

// FormatRecord renders one record as a dataset CSV row, the inverse of
// ParseRecord: chip, app, input, the config's String, then every
// sample at 17 significant digits, which round-trips the float exactly.
func FormatRecord(r Record) []string {
	row := make([]string, 0, 4+len(r.Samples))
	row = append(row, r.Chip, r.App, r.Input, r.Config.String())
	for _, s := range r.Samples {
		row = append(row, strconv.FormatFloat(s, 'g', 17, 64))
	}
	return row
}

// ParseRecord parses one dataset CSV row (chip, app, input, config,
// then the samples): blank sample fields are skipped, every sample
// must be a finite positive float, and at least one must be present.
func ParseRecord(row []string) (Record, error) {
	if len(row) < 5 {
		return Record{}, fmt.Errorf("%d fields, want at least 5", len(row))
	}
	cfg, err := opt.Parse(row[3])
	if err != nil {
		return Record{}, err
	}
	rec := Record{Key: Key{Tuple{row[0], row[1], row[2]}, cfg}}
	for _, f := range row[4:] {
		if strings.TrimSpace(f) == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return Record{}, err
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Record{}, fmt.Errorf("sample %v is not a finite positive number", v)
		}
		rec.Samples = append(rec.Samples, v)
	}
	if len(rec.Samples) == 0 {
		return Record{}, fmt.Errorf("no samples")
	}
	return rec, nil
}
