// Package report renders the study's tables and figures as aligned
// text, mirroring the paper's presentation (Tables I-X, Figures 1-5).
// Renderers take computed analysis structures and an io.Writer; All,
// Full, PaperTable and PaperFigure lay the paper out from one section
// list, reading each result from a study.Study.
package report

import (
	"fmt"
	"io"
	"strings"
)

// printer chains writes to an io.Writer and latches the first error,
// so renderers can write a whole block unconditionally and surface
// one failure at the end instead of threading an error through every
// line.
type printer struct {
	w   io.Writer
	err error
}

// do latches the error a nested renderer returned.
func (p *printer) do(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *printer) f(format string, args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, args...)
	}
}

func (p *printer) ln(args ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintln(p.w, args...)
	}
}

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title  string
	header []string
	rows   [][]string
	align  []bool // true = right-align
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header, align: make([]bool, len(header))}
}

// RightAlign marks columns (by index) as right-aligned.
func (t *Table) RightAlign(cols ...int) *Table {
	for _, c := range cols {
		if c < len(t.align) {
			t.align[c] = true
		}
	}
	return t
}

// Row appends a row; cells are stringified with %v.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.rows = append(t.rows, row)
	return t
}

// Separator appends a horizontal rule row.
func (t *Table) Separator() *Table {
	t.rows = append(t.rows, nil)
	return t
}

// Markdown switches every Render call in the package to GitHub-style
// markdown tables. It exists for the CLI's -md flag; set it once at
// startup (it is not synchronised).
var Markdown bool

// Render writes the table: aligned text by default, a markdown pipe
// table when the package-level Markdown toggle is set. The first write
// error is returned.
func (t *Table) Render(w io.Writer) error {
	if Markdown {
		return t.RenderMarkdown(w)
	}
	p := &printer{w: w}
	t.renderText(p)
	return p.err
}

// RenderMarkdown writes the table as a GitHub-flavoured pipe table.
// Separator rows become em-dash rows (markdown has no mid-table rule).
func (t *Table) RenderMarkdown(w io.Writer) error {
	p := &printer{w: w}
	if t.Title != "" {
		p.f("**%s**\n\n", t.Title)
	}
	writeRow := func(cells []string) {
		var b strings.Builder
		b.WriteString("|")
		for i := range t.header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			b.WriteString(" ")
			b.WriteString(strings.ReplaceAll(c, "|", "\\|"))
			b.WriteString(" |")
		}
		p.ln(b.String())
	}
	writeRow(t.header)
	var rule strings.Builder
	rule.WriteString("|")
	for i := range t.header {
		if i < len(t.align) && t.align[i] {
			rule.WriteString("---:|")
		} else {
			rule.WriteString("---|")
		}
	}
	p.ln(rule.String())
	for _, row := range t.rows {
		if row == nil {
			sep := make([]string, len(t.header))
			for i := range sep {
				sep[i] = "—"
			}
			writeRow(sep)
			continue
		}
		writeRow(row)
	}
	p.ln()
	return p.err
}

func (t *Table) renderText(p *printer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if t.Title != "" {
		p.f("%s\n", t.Title)
	}
	line := strings.Repeat("-", total)
	p.ln(line)
	t.renderRow(p, t.header, widths)
	p.ln(line)
	for _, row := range t.rows {
		if row == nil {
			p.ln(line)
			continue
		}
		t.renderRow(p, row, widths)
	}
	p.ln(line)
}

func (t *Table) renderRow(p *printer, row []string, widths []int) {
	var b strings.Builder
	for i, c := range row {
		wd := 0
		if i < len(widths) {
			wd = widths[i]
		}
		if i < len(t.align) && t.align[i] {
			fmt.Fprintf(&b, "%*s  ", wd, c)
		} else {
			fmt.Fprintf(&b, "%-*s  ", wd, c)
		}
	}
	p.ln(strings.TrimRight(b.String(), " "))
}

// F formats a float with the given number of decimals.
func F(v float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, v)
}

// Bar renders a proportional text bar of at most width cells.
func Bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}
