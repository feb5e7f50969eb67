package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:      "Table X",
		Title:   "demo",
		Columns: []string{"name", "value"},
	}
	tab.AddRow("alpha", "1.0")
	tab.AddRow("beta-long-name", "2.5")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table X — demo", "name", "value", "alpha", "beta-long-name", "2.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + separator + 2 rows + title line.
	if len(lines) != 5 {
		t.Errorf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	// Columns are aligned: "value" column starts at the same offset in the
	// header and in each data row.
	hdr := lines[1]
	col := strings.Index(hdr, "value")
	for _, l := range lines[3:] {
		if len(l) <= col {
			t.Errorf("row %q shorter than header alignment", l)
		}
	}
}

func TestTableRenderErrors(t *testing.T) {
	tab := &Table{ID: "t", Title: "x"}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err == nil {
		t.Error("empty-column table rendered")
	}
	tab.Columns = []string{"a", "b"}
	tab.AddRow("only-one")
	if err := tab.Render(&buf); err == nil {
		t.Error("ragged row accepted")
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		ID: "Fig. T", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "s1", X: []float64{1, 2}, Y: []float64{10, 20}}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Fig. T — demo", "# s1", "note: a note", "10", "20"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigureRenderRaggedSeries(t *testing.T) {
	f := &Figure{ID: "f", Series: []Series{{Label: "bad", X: []float64{1}, Y: nil}}}
	var buf bytes.Buffer
	if err := f.Render(&buf); err == nil {
		t.Error("ragged series rendered")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline not empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline length %d, want 4", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline %q does not span the range", s)
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series sparkline %q not minimal", flat)
		}
	}
}

func TestRenderHeatMap(t *testing.T) {
	grid := [][]float64{
		{50, 50, 50},
		{50, 90, 50},
	}
	var buf bytes.Buffer
	if err := RenderHeatMap(&buf, "frame", grid); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "frame") || !strings.Contains(out, "@") {
		t.Errorf("heat map missing title or hotspot:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Errorf("rendered %d lines, want 3", len(lines))
	}
	// The hotspot lands in the middle of the second row.
	if lines[2][1] != '@' {
		t.Errorf("hotspot not at centre: %q", lines[2])
	}
	if err := RenderHeatMap(&buf, "x", nil); err == nil {
		t.Error("empty grid rendered")
	}
}
