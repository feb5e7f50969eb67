package telemetry

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Sink receives the registry's record stream. Implementations must tolerate
// records of different names (epoch records interleaved with run records);
// Emit is serialized by the registry. The record belongs to the caller,
// who reuses it for the next emission: a sink must not keep the *Record
// (or its Fields slice) after Emit returns, and must Clone it if it needs
// the record later.
type Sink interface {
	Emit(rec *Record) error
	Flush() error
}

// JSONLSink streams each record as one JSON object per line, fields in
// emission order: {"record":"epoch","epoch":0,...}. Values are encoded
// with strconv into one reused buffer, byte-identical to encoding/json
// (see appendField), so a steady stream of emissions allocates nothing.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
}

// NewJSONLSink wraps w in a buffered JSON-lines sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriter(w)}
}

// Emit writes one record as a JSON line. bufio errors are sticky, so
// checking the final write surfaces any failure in the sequence.
func (s *JSONLSink) Emit(rec *Record) error {
	s.buf = AppendJSONL(s.buf[:0], rec)
	_, err := s.w.Write(s.buf)
	return err
}

// AppendJSONL appends rec to b as the one JSON line JSONLSink.Emit
// writes for it, newline included, for callers that gather whole
// records in their own buffer.
func AppendJSONL(b []byte, rec *Record) []byte {
	b = append(b, `{"record":`...)
	b = appendJSONString(b, rec.Name)
	for _, f := range rec.Fields {
		b = append(b, ',')
		b = appendJSONString(b, f.Key)
		b = append(b, ':')
		b = appendField(b, f)
	}
	return append(b, "}\n"...)
}

// Flush drains the buffer to the underlying writer.
func (s *JSONLSink) Flush() error { return s.w.Flush() }

// appendField appends f's value as json.Marshal renders it. NaN and ±Inf,
// which JSON cannot represent, are written as the strings "NaN", "+Inf"
// and "-Inf".
func appendField(b []byte, f Field) []byte {
	switch f.Kind {
	case KindInt:
		return strconv.AppendInt(b, f.Int(), 10)
	case KindFloat:
		return appendJSONFloat(b, f.Float())
	case KindBool:
		return strconv.AppendBool(b, f.Bool())
	default:
		return appendJSONString(b, f.Str())
	}
}

// appendJSONFloat is encoding/json's float64 encoder: the shortest 'f'
// form, switching to 'e' for magnitudes below 1e-6 or from 1e21 up, with
// a two-digit negative exponent shortened (e-07 → e-7).
func appendJSONFloat(b []byte, x float64) []byte {
	switch {
	case math.IsNaN(x):
		return append(b, `"NaN"`...)
	case math.IsInf(x, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(x, -1):
		return append(b, `"-Inf"`...)
	}
	format := byte('f')
	//lint:ignore floatcheck exact zero test that only picks a display format, as encoding/json does
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString writes s quoted. Printable ASCII other than the
// characters encoding/json escapes (" \ < > &) is copied as is; any other
// string goes through json.Marshal, which owns the escaping rules for
// control bytes, HTML characters and invalid or non-ASCII UTF-8.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// CSVSink streams records as CSV rows. The header is fixed by the first
// record: "record" followed by its field keys; later records contribute the
// fields matching the header (missing fields render empty, extra fields are
// dropped). Mixed-name record streams therefore fit a single table as long
// as they share columns.
type CSVSink struct {
	w      *csv.Writer
	header []string
}

// NewCSVSink wraps w in a CSV sink.
func NewCSVSink(w io.Writer) *CSVSink {
	return &CSVSink{w: csv.NewWriter(w)}
}

// Emit writes one record as a CSV row (plus the header on first use).
func (s *CSVSink) Emit(rec *Record) error {
	if s.header == nil {
		s.header = append(s.header, "record")
		for _, f := range rec.Fields {
			s.header = append(s.header, f.Key)
		}
		if err := s.w.Write(s.header); err != nil {
			return err
		}
	}
	row := make([]string, len(s.header))
	row[0] = rec.Name
	for i, key := range s.header[1:] {
		if v, ok := rec.Get(key); ok {
			row[i+1] = csvCell(v)
		}
	}
	return s.w.Write(row)
}

// Flush drains buffered rows.
func (s *CSVSink) Flush() error {
	s.w.Flush()
	return s.w.Error()
}

func csvCell(v any) string {
	if x, ok := v.(float64); ok {
		return strconv.FormatFloat(x, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

// WriteSummary renders a snapshot as a human-readable summary: metric
// tables plus an indented span tree with per-node share of its root.
func WriteSummary(w io.Writer, sn Snapshot) error {
	bw := bufio.NewWriter(w)
	if len(sn.Counters) > 0 {
		fmt.Fprintln(bw, "counters:")
		for _, c := range sn.Counters {
			fmt.Fprintf(bw, "  %-44s %s\n", Key(c.Name, c.Labels), fmtValue(c.Value))
		}
	}
	if len(sn.Gauges) > 0 {
		fmt.Fprintln(bw, "gauges:")
		for _, g := range sn.Gauges {
			fmt.Fprintf(bw, "  %-44s %s\n", Key(g.Name, g.Labels), fmtValue(g.Value))
		}
	}
	if len(sn.Histograms) > 0 {
		fmt.Fprintln(bw, "histograms:")
		for _, h := range sn.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(bw, "  %-44s count=%d sum=%s mean=%s\n",
				Key(h.Name, h.Labels), h.Count, fmtValue(h.Sum), fmtValue(mean))
			for _, b := range h.Buckets {
				le := "+Inf"
				if !math.IsInf(b.UpperBound, 1) {
					le = fmtValue(b.UpperBound)
				}
				fmt.Fprintf(bw, "    le=%-8s %d\n", le, b.Count)
			}
		}
	}
	if len(sn.Spans) > 0 {
		fmt.Fprintln(bw, "spans:")
		var walk func(s SpanSnapshot, depth int, rootNS int64)
		walk = func(s SpanSnapshot, depth int, rootNS int64) {
			pct := ""
			if rootNS > 0 {
				pct = fmt.Sprintf(" (%5.1f%%)", 100*float64(s.TotalNS)/float64(rootNS))
			}
			fmt.Fprintf(bw, "  %-*s%-*s %12s  ×%d%s\n",
				2*depth, "", 28-2*depth, s.Name,
				time.Duration(s.TotalNS).Round(time.Microsecond), s.Count, pct)
			for _, c := range s.Children {
				walk(c, depth+1, rootNS)
			}
		}
		for _, s := range sn.Spans {
			walk(s, 0, s.TotalNS)
		}
	}
	return bw.Flush()
}
