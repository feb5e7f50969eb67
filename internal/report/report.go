// Package report renders experiment results — tables, figure series and
// heat maps — as aligned plain text, mirroring the rows and series the
// paper's tables and figures report.
package report

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Table is a titled grid of cells with a header row.
type Table struct {
	// ID names the reproduced artefact, e.g. "Table 2" or "Fig. 9".
	ID string
	// Title describes the contents.
	Title string
	// Columns is the header row.
	Columns []string
	// Rows holds the data cells; every row must have len(Columns) cells.
	Rows [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	if len(t.Columns) == 0 {
		return errors.New("report: table has no columns")
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Columns) {
			return fmt.Errorf("report: row has %d cells, table has %d columns", len(row), len(t.Columns))
		}
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Series is one labelled (x, y) sequence of a figure.
type Series struct {
	Label string
	X, Y  []float64
}

// Figure is a collection of series with axis labels.
type Figure struct {
	// ID names the reproduced artefact, e.g. "Fig. 2".
	ID string
	// Title describes the contents.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// Series holds the plotted sequences.
	Series []Series
	// Notes carries free-form commentary (substitutions, caveats).
	Notes []string
}

// Render writes each series as aligned columns, series after series.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title); err != nil {
		return err
	}
	for _, s := range f.Series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("report: series %q has %d x values and %d y values", s.Label, len(s.X), len(s.Y))
		}
		if _, err := fmt.Fprintf(w, "# %s  [%s vs %s]\n", s.Label, f.YLabel, f.XLabel); err != nil {
			return err
		}
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%12.6g  %12.6g\n", s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Sparkline renders y values as a compact unicode bar string, handy for
// eyeballing a series in terminal output.
func Sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		lo = math.Min(lo, y)
		hi = math.Max(hi, y)
	}
	var b strings.Builder
	for _, y := range ys {
		idx := 0
		if hi > lo {
			idx = int((y - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}

// RenderHeatMap writes a temperature grid as ASCII shades with a legend,
// the textual equivalent of the Fig. 12 frames.
func RenderHeatMap(w io.Writer, title string, grid [][]float64) error {
	if len(grid) == 0 || len(grid[0]) == 0 {
		return errors.New("report: empty heat map")
	}
	shades := []byte(" .:-=+*#%@")
	lo, hi := grid[0][0], grid[0][0]
	for _, row := range grid {
		for _, v := range row {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if _, err := fmt.Fprintf(w, "%s  (%.1f°C%s to %.1f°C%s)\n",
		title, lo, " = ' '", hi, " = '@'"); err != nil {
		return err
	}
	for _, row := range grid {
		line := make([]byte, len(row))
		for i, v := range row {
			idx := 0
			if hi > lo {
				idx = int((v - lo) / (hi - lo) * float64(len(shades)-1))
			}
			line[i] = shades[idx]
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}
