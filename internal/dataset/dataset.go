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
	"slices"
	"sort"
	"strconv"
	"strings"

	"gpuport/internal/opt"
	"gpuport/internal/stats"
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

// Stat is one cell's cached summary: the mean of its samples and their
// 95% confidence interval, computed once by Add with stats.Mean and
// stats.CI95.
type Stat struct {
	Mean float64
	CI   stats.Interval
}

// cell is one slab entry.
type cell struct {
	samples []float64
	stat    Stat
	present bool
}

// Dataset is the collection of records, stored in one slab of cells
// indexed by (tuple ID x config ID). Tuple IDs are dense and assigned
// in first-insertion order; config IDs are opt's (opt.Config.ID). Add
// maintains every derived structure, so reads never build state.
type Dataset struct {
	tuples []Tuple // by tuple ID
	sorted []int32 // tuple IDs in Tuples order
	cells  []cell  // cell (tid, cid) at tid*opt.NumConfigs + cid
	order  []int32 // slab indexes of the present cells in first-insertion order
	last   int     // tuple ID of the latest Add: records arrive grouped by tuple

	chips  []string
	apps   []string
	inputs []string
}

// New returns an empty dataset.
func New() *Dataset { return &Dataset{} }

// Add inserts or replaces the record for its key. A config outside the
// optimisation space (see opt.Config.ID) panics: it has no cell.
func (d *Dataset) Add(rec Record) {
	cid, ok := rec.Config.ID()
	if !ok {
		panic(fmt.Sprintf("dataset: config %v with FG=%d is outside the optimisation space", rec.Config, rec.Config.FG))
	}
	tid := d.last
	if tid >= len(d.tuples) || d.tuples[tid] != rec.Tuple {
		if tid, ok = d.TupleID(rec.Tuple); !ok {
			tid = d.addTuple(rec.Tuple)
		}
		d.last = tid
	}
	i := tid*opt.NumConfigs + cid
	c := &d.cells[i]
	if !c.present {
		c.present = true
		d.order = append(d.order, int32(i))
	}
	c.samples = rec.Samples
	c.stat = Stat{Mean: stats.Mean(rec.Samples), CI: stats.CI95(rec.Samples)}
}

// addTuple assigns t the next tuple ID, grows the slab by one row and
// inserts the ID into the sorted order.
func (d *Dataset) addTuple(t Tuple) int {
	tid := len(d.tuples)
	d.tuples = append(d.tuples, t)
	d.cells = append(d.cells, make([]cell, opt.NumConfigs)...)
	d.sorted = slices.Insert(d.sorted, d.search(t), int32(tid))
	d.chips = addUnique(d.chips, t.Chip)
	d.apps = addUnique(d.apps, t.App)
	d.inputs = addUnique(d.inputs, t.Input)
	return tid
}

// search returns the position in the sorted order where t is, or
// would be inserted.
func (d *Dataset) search(t Tuple) int {
	return sort.Search(len(d.sorted), func(k int) bool { return !tupleLess(d.tuples[d.sorted[k]], t) })
}

func tupleLess(a, b Tuple) bool {
	if a.Chip != b.Chip {
		return a.Chip < b.Chip
	}
	if a.App != b.App {
		return a.App < b.App
	}
	return a.Input < b.Input
}

func addUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}

// TupleID returns t's dense tuple ID, or false when t has no records.
func (d *Dataset) TupleID(t Tuple) (int, bool) {
	k := d.search(t)
	if k < len(d.sorted) && d.tuples[d.sorted[k]] == t {
		return int(d.sorted[k]), true
	}
	return 0, false
}

// Stat returns the cached summary of cell (tuple ID, config ID), with
// ok=false when the cell has no samples (where Samples returns nil).
func (d *Dataset) Stat(tid, cid int) (Stat, bool) {
	c := &d.row(tid)[cid]
	return c.stat, c.samples != nil
}

// lookup returns the slab entry for a key, or nil when the tuple is
// unknown or the config lies outside the optimisation space.
func (d *Dataset) lookup(t Tuple, cfg opt.Config) *cell {
	cid, ok := cfg.ID()
	if !ok {
		return nil
	}
	tid, ok := d.TupleID(t)
	if !ok {
		return nil
	}
	return &d.row(tid)[cid]
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.order) }

// Chips, Apps and Inputs return the dimension values in insertion order.
func (d *Dataset) Chips() []string  { return append([]string(nil), d.chips...) }
func (d *Dataset) Apps() []string   { return append([]string(nil), d.apps...) }
func (d *Dataset) Inputs() []string { return append([]string(nil), d.inputs...) }

// Samples returns the timed runs for a key, or nil when absent.
func (d *Dataset) Samples(t Tuple, cfg opt.Config) []float64 {
	if c := d.lookup(t, cfg); c != nil {
		return c.samples
	}
	return nil
}

// Mean returns the mean runtime for a key, or NaN-free 0 with ok=false
// when absent.
func (d *Dataset) Mean(t Tuple, cfg opt.Config) (float64, bool) {
	if c := d.lookup(t, cfg); c != nil && c.present {
		return c.stat.Mean, true
	}
	return 0, false
}

// Tuples returns all distinct tuples in deterministic order (by chip,
// then app, then input).
func (d *Dataset) Tuples() []Tuple {
	out := make([]Tuple, len(d.sorted))
	for k, tid := range d.sorted {
		out[k] = d.tuples[tid]
	}
	return out
}

// TuplesWhere returns tuples passing the filter, in the same order as
// Tuples.
func (d *Dataset) TuplesWhere(keep func(Tuple) bool) []Tuple {
	var out []Tuple
	for _, tid := range d.sorted {
		if t := d.tuples[tid]; keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// BestConfig returns the configuration with the lowest mean runtime for
// the tuple (the per-tuple oracle) and that runtime.
func (d *Dataset) BestConfig(t Tuple) (opt.Config, float64, bool) {
	tid, ok := d.TupleID(t)
	if !ok {
		return opt.Config{}, 0, false
	}
	best, bestTime, found := 0, 0.0, false
	for cid, c := range d.row(tid) {
		if !c.present {
			continue
		}
		if !found || c.stat.Mean < bestTime {
			best, bestTime, found = cid, c.stat.Mean, true
		}
	}
	return opt.ByID(best), bestTime, found
}

// row returns the slab row of tuple tid, indexed by config ID.
func (d *Dataset) row(tid int) []cell {
	return d.cells[tid*opt.NumConfigs : (tid+1)*opt.NumConfigs]
}

// TupleCoverage returns the fraction of the configuration grid that has
// data for the tuple (1 for a fully swept tuple, 0 for an absent one).
func (d *Dataset) TupleCoverage(t Tuple) float64 {
	tid, ok := d.TupleID(t)
	if !ok {
		return 0
	}
	have := 0
	for _, c := range d.row(tid) {
		if c.present {
			have++
		}
	}
	return float64(have) / opt.NumConfigs
}

// Coverage returns the fraction of the chips x apps x inputs x configs
// grid spanned by the dataset's own dimensions that has data. Note this
// is relative to the dimensions the dataset knows about: a chip that
// produced no records at all does not shrink Coverage - the collection
// report (internal/measure) is the authoritative account of the
// intended sweep.
func (d *Dataset) Coverage() float64 {
	grid := len(d.chips) * len(d.apps) * len(d.inputs) * opt.NumConfigs
	if grid == 0 {
		return 1
	}
	return float64(len(d.order)) / float64(grid)
}

// MissingCells lists every (tuple, config) hole in the grid spanned by
// the dataset's dimensions, in dimension insertion order then config
// order. A complete dataset returns nil.
func (d *Dataset) MissingCells() []Key {
	var out []Key
	for _, ch := range d.chips {
		for _, app := range d.apps {
			for _, in := range d.inputs {
				t := Tuple{Chip: ch, App: app, Input: in}
				tid, ok := d.TupleID(t)
				for cid := 0; cid < opt.NumConfigs; cid++ {
					if !ok || !d.row(tid)[cid].present {
						out = append(out, Key{t, opt.ByID(cid)})
					}
				}
			}
		}
	}
	return out
}

// record rebuilds the record stored at slab index i.
func (d *Dataset) record(i int32) Record {
	tid, cid := int(i)/opt.NumConfigs, int(i)%opt.NumConfigs
	return Record{Key: Key{d.tuples[tid], opt.ByID(cid)}, Samples: d.cells[i].samples}
}

// WriteCSV serialises the dataset: header then one row per record with
// samples in fixed columns.
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := csv.NewWriter(bw)
	maxSamples := 0
	for _, i := range d.order {
		if n := len(d.cells[i].samples); n > maxSamples {
			maxSamples = n
		}
	}
	if err := cw.Write(Header(maxSamples)); err != nil {
		return err
	}
	for _, i := range d.order {
		if err := cw.Write(FormatRecord(d.record(i))); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadCSV deserialises a dataset written by WriteCSV. It parses each
// row as it is read; the reader reuses one row slice, and ParseRecord
// keeps only its strings.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	if err != nil {
		return nil, err
	}
	if len(head) < 5 || head[0] != "chip" || head[3] != "config" {
		return nil, fmt.Errorf("dataset: unexpected header %v", head)
	}
	d := New()
	for n := 2; ; n++ {
		row, err := cr.Read()
		if err == io.EOF {
			return d, nil
		}
		if err != nil {
			return nil, err
		}
		rec, err := ParseRecord(row)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", n, err)
		}
		d.Add(rec)
	}
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
