package report

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"gpuport/internal/analysis"
	"gpuport/internal/apps"
	"gpuport/internal/chip"
	"gpuport/internal/fault"
	"gpuport/internal/graph"
	"gpuport/internal/measure"
	"gpuport/internal/obs"
	"gpuport/internal/study"
)

// The small study the section tests render: 2 chips x 2 apps x 1
// input under light fault injection, so the campaign block has
// something to tell. Collected once per test binary.
var (
	smallOnce  sync.Once
	smallStudy *study.Study
	smallErr   error
)

func collectedStudy(t *testing.T) *study.Study {
	t.Helper()
	smallOnce.Do(func() {
		bfs, _ := apps.ByName("bfs-wl")
		pr, _ := apps.ByName("pr-residual")
		faults, err := fault.Parse("transient=0.05,seed=3")
		if err != nil {
			smallErr = err
			return
		}
		smallStudy, smallErr = study.New(measure.Options{
			Seed:    7,
			Runs:    3,
			Chips:   chip.All()[:2],
			Apps:    []apps.App{bfs, pr},
			Inputs:  []*graph.Graph{graph.GenerateUniform("r-rand", 400, 5, 9)},
			Workers: 2,
			Faults:  faults,
		})
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallStudy
}

// alone is the entry point that renders sec on its own, as `gpuport
// table N` and `gpuport figure N` do.
func alone(sec section) func(io.Writer, int, func() (*study.Study, error)) error {
	if sec.kind == "figure" {
		return PaperFigure
	}
	return PaperTable
}

// renderSection renders one list entry on its own.
func renderSection(t *testing.T, sec section, s *study.Study) string {
	t.Helper()
	var b bytes.Buffer
	if err := alone(sec)(&b, sec.num, func() (*study.Study, error) { return s, nil }); err != nil {
		t.Fatalf("%s %d: %v", sec.kind, sec.num, err)
	}
	return b.String()
}

// TestSectionOrderByTitle pins the list to the paper: All renders
// Tables I-X, then Figures 1-5. With TestAllIsTheSectionList, each
// entry's number is the one its title says.
func TestSectionOrderByTitle(t *testing.T) {
	s := collectedStudy(t)
	want := []string{
		"Table I:", "Table II:", "Table III:", "Table IV:", "Table V:",
		"Table VI:", "Table VII:", "Table VIII:", "Table IX:", "Table X:",
		"Figure 1:", "Figure 2:", "Figure 3:", "Figure 4:", "Figure 5:",
	}
	var all bytes.Buffer
	if err := All(&all, s, nil); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(all.String(), "\n") {
		if strings.HasPrefix(line, "Table ") || strings.HasPrefix(line, "Figure ") {
			got = append(got, line[:strings.Index(line, ":")+1])
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("All renders titles\n%q\nwant\n%q", got, want)
	}
}

// TestSectionsLoadOnlyWhenFlagged holds every entry's dataset flag to
// what it renders: a fixed section renders with a nil study and never
// calls load, and a dataset section returns load's error.
func TestSectionsLoadOnlyWhenFlagged(t *testing.T) {
	errLoad := errors.New("load failed")
	load := func() (*study.Study, error) { return nil, errLoad }
	for _, sec := range paper(nil) {
		err := alone(sec)(&bytes.Buffer{}, sec.num, load)
		if sec.dataset && !errors.Is(err, errLoad) {
			t.Errorf("%s %d reads the dataset but returned %v", sec.kind, sec.num, err)
		}
		if !sec.dataset && err != nil {
			t.Errorf("%s %d is fixed but returned %v", sec.kind, sec.num, err)
		}
	}
	for _, c := range []struct {
		render func(*bytes.Buffer) error
		want   string
	}{
		{func(b *bytes.Buffer) error { return PaperTable(b, 0, load) }, "no table 0 (valid: 1-10)"},
		{func(b *bytes.Buffer) error { return PaperTable(b, 11, load) }, "no table 11 (valid: 1-10)"},
		{func(b *bytes.Buffer) error { return PaperFigure(b, 6, load) }, "no figure 6 (valid: 1-5)"},
	} {
		var b bytes.Buffer
		if err := c.render(&b); err == nil || err.Error() != c.want {
			t.Errorf("got %v, want %q", err, c.want)
		}
		if b.Len() != 0 {
			t.Errorf("unknown section wrote %q", b.String())
		}
	}
}

// TestAllIsTheSectionList requires All to be the dataset summary and
// campaign block, then each section as rendered on its own after a
// blank line, with Table II's oracle line in All only.
func TestAllIsTheSectionList(t *testing.T) {
	s := collectedStudy(t)
	var want bytes.Buffer
	if err := TuplesSummary(&want, s.Dataset()); err != nil {
		t.Fatal(err)
	}
	if err := Campaign(&want, s, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want.String(), "coverage:") || !strings.Contains(want.String(), "fault profile:") {
		t.Fatalf("faulted study rendered no campaign block:\n%s", want.String())
	}
	for _, sec := range paper(nil) {
		want.WriteString("\n")
		alone := renderSection(t, sec, s)
		if strings.Contains(alone, "max oracle geomean") {
			t.Errorf("%s %d alone prints the aside", sec.kind, sec.num)
		}
		want.WriteString(alone)
		if sec.kind == "table" && sec.num == 2 {
			want.WriteString(fmt.Sprintf("max oracle geomean speedup over baseline: %.2fx\n",
				analysis.MaxOracleGeoMean(s.Dataset())))
		}
	}
	var got bytes.Buffer
	if err := All(&got, s, nil); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("All differs from its sections rendered one by one:\n%s\nwant\n%s", got.String(), want.String())
	}
}

// TestFullFraming checks REPORT.md's frame around All: the title and
// seed line before it, the sampling curve and the three leave-one-out
// tables after it.
func TestFullFraming(t *testing.T) {
	s := collectedStudy(t)
	var all, full bytes.Buffer
	if err := All(&all, s, nil); err != nil {
		t.Fatal(err)
	}
	if err := Full(&full, s, 7, nil); err != nil {
		t.Fatal(err)
	}
	head := "# gpuport study report\n\nReproduction of \"One Size Doesn't Fit All\" (IISWC 2019); seed 7.\n\n"
	out := full.String()
	if !strings.HasPrefix(out, head+all.String()) {
		t.Fatalf("Full does not open with its title, seed line and All:\n%s", out[:min(400, len(out))])
	}
	tail := out[len(head)+all.Len():]
	order := []string{
		"\n## Extension: sampling sufficiency (Section IX future work)\n\n",
		"Sampling sufficiency for the chip specialisation",
		"\n## Extension: leave-one-out prediction (Section IX future work)\n\n",
		"Leave-one-app-out", "Leave-one-input-out", "Leave-one-chip-out",
	}
	for _, want := range order {
		i := strings.Index(tail, want)
		if i < 0 {
			t.Fatalf("Full's tail lacks %q (or has it out of order):\n%s", want, tail)
		}
		tail = tail[i+len(want):]
	}
	if !strings.HasSuffix(out, "\n\n") {
		t.Error("Full does not end with the last table's blank line")
	}
}

func TestCampaignSilentForLoadedDataset(t *testing.T) {
	loaded := study.FromDataset(collectedStudy(t).Dataset())
	var b bytes.Buffer
	if err := Campaign(&b, loaded, nil); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("loaded dataset rendered a campaign block:\n%s", b.String())
	}
	hits := &obs.Summary{Counters: []obs.Counter{{Name: obs.CtrCacheHits, Value: 4}}}
	if err := Campaign(&b, loaded, hits); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Trace cache") {
		t.Errorf("cache traffic not rendered:\n%s", b.String())
	}
}

func TestDecisions(t *testing.T) {
	spec := collectedStudy(t).Specialise(analysis.Dims{Chip: true})
	var b bytes.Buffer
	if err := Decisions(&b, spec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	n := 0
	for _, p := range spec.Partitions {
		if want := fmt.Sprintf("partition %s -> %s", p.Key, p.Config); lines[n] != want {
			t.Errorf("line %d = %q, want %q", n, lines[n], want)
		}
		n++
		for _, dec := range p.Decisions {
			if !strings.HasPrefix(lines[n], "  "+dec.Flag.String()+" ") || !strings.Contains(lines[n], " comparisons=") {
				t.Errorf("line %d = %q, want the %s decision", n, lines[n], dec.Flag)
			}
			n++
		}
	}
	if n != len(lines) || len(spec.Partitions) != 2 {
		t.Errorf("%d lines for %d partitions, want one header and one line per flag each", len(lines), len(spec.Partitions))
	}
}

func TestTransferAndStability(t *testing.T) {
	var b bytes.Buffer
	err := Transfer(&b, &study.TransferResult{
		GlobalA: "sg", GlobalB: "sg,wg",
		Comparison: study.Comparison{ChipAgreement: 0.976, ChipUndecided: 0.024, RankTau: 0.91},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"extended inputs", "sg,wg", "97.6%", "2.4%", "0.910"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("transfer table lacks %q:\n%s", want, b.String())
		}
	}
	b.Reset()
	err = Stability(&b, &study.SeedStabilityResult{
		Seeds: []uint64{42, 43}, GlobalConfigs: []string{"sg", "wg"},
		RankTau: []float64{1, 0.934}, ChipAgreement: []float64{1, 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"  42  sg", "  43  wg", "0.934", "50.0%"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("stability table lacks %q:\n%s", want, b.String())
		}
	}
}

// writeCount counts the write calls a render makes.
type writeCount int

func (c *writeCount) Write(p []byte) (int, error) {
	*c++
	return len(p), nil
}

// TestEntryPointsPropagateWriteError sweeps the failure point across
// the writes of every study-level entry point. Each section and small
// entry point is swept at every write, in text and markdown. Full and
// All make hundreds of writes and recompute their uncached analyses on
// each render, so they are swept at a stride plus their last write, in
// the one mode each is read in: REPORT.md is markdown, `gpuport all`
// text.
func TestEntryPointsPropagateWriteError(t *testing.T) {
	s := collectedStudy(t)
	load := func() (*study.Study, error) { return s, nil }
	type entry struct {
		name   string
		md     bool
		stride int
		render func(w io.Writer) error
	}
	entries := []entry{
		{"Full", true, 41, func(w io.Writer) error { return Full(w, s, 7, nil) }},
		{"All", false, 37, func(w io.Writer) error { return All(w, s, nil) }},
	}
	for _, md := range []bool{false, true} {
		entries = append(entries,
			entry{"Campaign", md, 1, func(w io.Writer) error { return Campaign(w, s, nil) }},
			entry{"Decisions", md, 1, func(w io.Writer) error { return Decisions(w, s.PerChip()) }},
			entry{"Sampling", md, 1, func(w io.Writer) error { return Sampling(w, s, analysis.Dims{}, 1) }},
			entry{"Transfer", md, 1, func(w io.Writer) error { return Transfer(w, &study.TransferResult{}) }},
			entry{"Stability", md, 1, func(w io.Writer) error {
				return Stability(w, &study.SeedStabilityResult{Seeds: []uint64{1}, GlobalConfigs: []string{""}, RankTau: []float64{1}, ChipAgreement: []float64{1}})
			}},
		)
		for _, sec := range paper(nil) {
			sec := sec
			entries = append(entries, entry{fmt.Sprintf("%s%d", sec.kind, sec.num), md, 1,
				func(w io.Writer) error { return alone(sec)(w, sec.num, load) }})
		}
	}
	defer func() { Markdown = false }()
	for _, e := range entries {
		Markdown = e.md
		t.Run(fmt.Sprintf("%s/md=%v", e.name, e.md), func(t *testing.T) {
			var n writeCount
			if err := e.render(&n); err != nil {
				t.Fatalf("healthy writer: %v", err)
			}
			if n == 0 {
				t.Fatal("rendered nothing")
			}
			for k := 0; k < int(n); k += e.stride {
				if err := e.render(&failAfter{n: k}); !errors.Is(err, errPipe) {
					t.Fatalf("fail at write %d of %d: got %v, want errPipe", k, n, err)
				}
			}
			if err := e.render(&failAfter{n: int(n) - 1}); !errors.Is(err, errPipe) {
				t.Fatalf("fail at the last write: got %v, want errPipe", err)
			}
		})
	}
}
