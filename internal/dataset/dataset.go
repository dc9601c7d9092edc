// Package dataset holds the study's empirical data: timed samples for
// every (chip, application, input, configuration) combination, with
// indexing, querying and CSV round-tripping.
//
// The full study is 6 chips x 17 applications x 3 inputs x 96
// configurations x 3 runs = 88,128 timings.
package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

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

// Stat is one cell's cached summary: the mean of its samples and their
// 95% confidence interval, computed once by Add with stats.Mean and
// stats.CI95.
type Stat struct {
	Mean float64
	CI   stats.Interval
}

// cell is one entry of a tuple's row.
type cell struct {
	samples []float64
	stat    Stat
	present bool
}

// Dataset is the collection of records, stored as one row of cells per
// tuple, indexed by (tuple ID, config ID). Tuple IDs are dense and
// assigned in first-insertion order; config IDs are opt's
// (opt.Config.ID). Add maintains every derived structure, so reads
// never build state.
type Dataset struct {
	tuples []Tuple                 // by tuple ID
	sorted []int32                 // tuple IDs in Tuples order
	cells  []*[opt.NumConfigs]cell // row per tuple ID, allocated once
	order  []int32                 // tid*opt.NumConfigs + cid of each present cell, in first-insertion order
	last   int                     // tuple ID of the latest Add: records arrive grouped by tuple

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
	c := &d.cells[tid][cid]
	if !c.present {
		c.present = true
		d.order = append(d.order, int32(tid*opt.NumConfigs+cid))
	}
	c.samples = rec.Samples
	c.stat = Stat{Mean: stats.Mean(rec.Samples), CI: stats.CI95(rec.Samples)}
}

// addTuple assigns t the next tuple ID, allocates its row and inserts
// the ID into the sorted order. Rows are separate allocations, so a new
// tuple never copies the cells already stored.
func (d *Dataset) addTuple(t Tuple) int {
	tid := len(d.tuples)
	d.tuples = append(d.tuples, t)
	d.cells = append(d.cells, new([opt.NumConfigs]cell))
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
	c := &d.cells[tid][cid]
	return c.stat, c.samples != nil
}

// lookup returns the cell for a key, or nil when the tuple is
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
	return &d.cells[tid][cid]
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
	for cid, c := range d.cells[tid] {
		if !c.present {
			continue
		}
		if !found || c.stat.Mean < bestTime {
			best, bestTime, found = cid, c.stat.Mean, true
		}
	}
	return opt.ByID(best), bestTime, found
}

// TupleCoverage returns the fraction of the configuration grid that has
// data for the tuple (1 for a fully swept tuple, 0 for an absent one).
func (d *Dataset) TupleCoverage(t Tuple) float64 {
	tid, ok := d.TupleID(t)
	if !ok {
		return 0
	}
	have := 0
	for _, c := range d.cells[tid] {
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
					if !ok || !d.cells[tid][cid].present {
						out = append(out, Key{t, opt.ByID(cid)})
					}
				}
			}
		}
	}
	return out
}

// at returns the cell at index i, tid*opt.NumConfigs + cid.
func (d *Dataset) at(i int32) *cell {
	return &d.cells[int(i)/opt.NumConfigs][int(i)%opt.NumConfigs]
}

// record rebuilds the record stored at cell index i.
func (d *Dataset) record(i int32) Record {
	tid, cid := int(i)/opt.NumConfigs, int(i)%opt.NumConfigs
	return Record{Key: Key{d.tuples[tid], opt.ByID(cid)}, Samples: d.at(i).samples}
}

// WriteCSV serialises the dataset: header then one row per record with
// samples in fixed columns.
func (d *Dataset) WriteCSV(w io.Writer) error {
	maxSamples := 0
	for _, i := range d.order {
		if n := len(d.at(i).samples); n > maxSamples {
			maxSamples = n
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(AppendHeader(nil, maxSamples)); err != nil {
		return err
	}
	var row []byte
	for _, i := range d.order {
		row = AppendRecord(row[:0], d.record(i))
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV deserialises a dataset written by WriteCSV. It splits the
// input with csvReader, a record at a time, and parses each row
// straight from its fields (rowParser). A row's error names it by its
// record number, the header being row 1.
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := newCSVReader(r)
	switch err := cr.read(); {
	case err == io.EOF:
		return nil, fmt.Errorf("dataset: empty CSV")
	case err != nil:
		return nil, fmt.Errorf("dataset: header: %w", err)
	}
	if head := cr.fields; len(head) < 5 || string(head[0]) != "chip" || string(head[3]) != "config" {
		return nil, fmt.Errorf("dataset: unexpected header %q", head)
	}
	d := New()
	p := rowParser{configs: map[string]opt.Config{}}
	for n := 2; ; n++ {
		err := cr.read()
		if err == io.EOF {
			return d, nil
		}
		var rec Record
		if err == nil {
			rec, err = p.parse(cr.fields)
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d: %w", n, err)
		}
		d.Add(rec)
	}
}

// rowParser parses dataset CSV rows: chip, app, input, config, then the
// samples. Blank sample fields are skipped, every sample must be a
// finite positive float, and at least one must be present. A row
// reuses the tuple strings of the row before where its bytes match
// them, a config spelling is parsed once, and samples are carved from
// a shared slab, so a row of a file WriteCSV wrote allocates nothing
// of its own.
type rowParser struct {
	last    Tuple
	configs map[string]opt.Config // opt.Parse of every spelling seen
	slab    []float64
}

// slabLen is the number of samples one slab allocation holds.
const slabLen = 4096

func (p *rowParser) parse(row [][]byte) (Record, error) {
	if len(row) < 5 {
		return Record{}, fmt.Errorf("%d fields, want at least 5", len(row))
	}
	cfg, ok := p.configs[string(row[3])]
	if !ok {
		var err error
		if cfg, err = opt.Parse(string(row[3])); err != nil {
			return Record{}, err
		}
		p.configs[string(row[3])] = cfg
	}
	p.last = Tuple{reuse(p.last.Chip, row[0]), reuse(p.last.App, row[1]), reuse(p.last.Input, row[2])}
	if fields := len(row) - 4; len(p.slab) < fields {
		p.slab = make([]float64, max(slabLen, fields))
	}
	samples := p.slab[:0]
	for _, f := range row[4:] {
		if len(bytes.TrimSpace(f)) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			return Record{}, err
		}
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return Record{}, fmt.Errorf("sample %v is not a finite positive number", v)
		}
		samples = append(samples, v)
	}
	if len(samples) == 0 {
		return Record{}, fmt.Errorf("no samples")
	}
	p.slab = p.slab[len(samples):]
	return Record{Key: Key{p.last, cfg}, Samples: samples[:len(samples):len(samples)]}, nil
}

// reuse returns s when b spells it, else b as a new string.
func reuse(s string, b []byte) string {
	if string(b) == s {
		return s
	}
	return string(b)
}

// AppendHeader appends the dataset CSV header line for rows of up to
// runs samples: chip, app, input, config, then run1..runN.
func AppendHeader(dst []byte, runs int) []byte {
	dst = append(dst, "chip,app,input,config"...)
	for i := 1; i <= runs; i++ {
		dst = strconv.AppendInt(append(dst, ",run"...), int64(i), 10)
	}
	return append(dst, '\n')
}

// AppendRecord appends one record as a dataset CSV line, the bytes an
// encoding/csv Writer writes for it: chip, app, input, the config's
// String, then every sample at 17 significant digits, which round-trips
// the float exactly.
func AppendRecord(dst []byte, r Record) []byte {
	dst = appendField(dst, r.Chip)
	dst = appendField(append(dst, ','), r.App)
	dst = appendField(append(dst, ','), r.Input)
	dst = appendField(append(dst, ','), r.Config.String())
	for _, s := range r.Samples {
		dst = strconv.AppendFloat(append(dst, ','), s, 'g', 17, 64)
	}
	return append(dst, '\n')
}

// appendField appends one CSV field, quoted exactly when an
// encoding/csv Writer quotes it: when it is `\.`, holds a comma, quote,
// CR or LF, or begins with a Unicode space.
func appendField(dst []byte, f string) []byte {
	first, _ := utf8.DecodeRuneInString(f)
	if f != `\.` && !strings.ContainsAny(f, ",\"\r\n") && !unicode.IsSpace(first) {
		return append(dst, f...)
	}
	dst = append(append(dst, '"'), strings.ReplaceAll(f, `"`, `""`)...)
	return append(dst, '"')
}
