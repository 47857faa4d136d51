package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// escapeHelp escapes HELP text per the Prometheus text exposition format
// (version 0.0.4): backslash and newline must be escaped so multi-line
// help cannot break the line-oriented format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

// WritePrometheus writes every gathered metric in the Prometheus text
// exposition format (version 0.0.4). Histograms emit cumulative le
// buckets (non-empty ones plus +Inf), _sum in the exposed unit, and
// _count.
func WritePrometheus(w io.Writer, pts []Point) error {
	for _, p := range pts {
		switch p.Kind {
		case KindCounter, KindGauge:
			typ := "counter"
			if p.Kind == KindGauge {
				typ = "gauge"
			}
			if p.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, escapeHelp(p.Help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %s\n",
				p.Name, typ, p.Name, formatFloat(p.Value)); err != nil {
				return err
			}
		case KindHistogram:
			if err := writePromHistogram(w, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, p Point) error {
	if p.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", p.Name, escapeHelp(p.Help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", p.Name); err != nil {
		return err
	}
	s := p.Hist
	var cum uint64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		le := float64(bucketUpper(i)) * s.Scale
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n",
			p.Name, formatFloat(le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", p.Name, s.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
		p.Name, formatFloat(float64(s.Sum)*s.Scale), p.Name, s.Count); err != nil {
		return err
	}
	return nil
}

// formatFloat renders a value the shortest way that round-trips, with
// integral values printed without an exponent.
func formatFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// HistogramJSON is the JSON shape of one histogram.
type HistogramJSON struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// SnapshotJSON summarizes a histogram snapshot for JSON exposition.
func SnapshotJSON(s Snapshot) HistogramJSON {
	return HistogramJSON{
		Count: s.Count,
		Sum:   float64(s.Sum) * s.Scale,
		Max:   float64(s.Max) * s.Scale,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P90:   s.Quantile(0.90),
		P99:   s.Quantile(0.99),
	}
}

// SpanJSON is the JSON shape of one attribution span.
type SpanJSON struct {
	Seq    uint64 `json:"seq"`
	Parent uint64 `json:"parent"`
	Kind   string `json:"kind"`
	Begin  int64  `json:"begin"`
	Dur    int64  `json:"dur"`
	A      uint64 `json:"a"`
	B      uint64 `json:"b"`
}

// SlowOpJSON is the JSON shape of one watchdog slow-op dump.
type SlowOpJSON struct {
	Kind  string     `json:"kind"`
	Nanos int64      `json:"nanos"`
	Dur   int64      `json:"dur"`
	Root  uint64     `json:"root"`
	Spans []SpanJSON `json:"spans"`
}

// spansJSON converts a span dump to its JSON shape.
func spansJSON(spans []Span) []SpanJSON {
	out := make([]SpanJSON, 0, len(spans))
	for _, s := range spans {
		out = append(out, SpanJSON{
			Seq: s.Seq, Parent: uint64(s.Parent), Kind: s.Kind.String(),
			Begin: s.Begin, Dur: s.Dur, A: s.A, B: s.B,
		})
	}
	return out
}

// MetricsJSON is the top-level JSON exposition document.
type MetricsJSON struct {
	Counters   map[string]float64       `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]HistogramJSON `json:"histograms"`
	Spans      []SpanJSON               `json:"spans,omitempty"`
	SlowOps    []SlowOpJSON             `json:"slow_ops,omitempty"`
}

// BuildJSON assembles the JSON exposition document from gathered points
// and (optionally) dumped spans and slow-op dumps.
func BuildJSON(pts []Point, spans []Span, slow []SlowOp) MetricsJSON {
	doc := MetricsJSON{
		Counters:   make(map[string]float64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramJSON),
	}
	for _, p := range pts {
		switch p.Kind {
		case KindCounter:
			doc.Counters[p.Name] = p.Value
		case KindGauge:
			doc.Gauges[p.Name] = p.Value
		case KindHistogram:
			doc.Histograms[p.Name] = SnapshotJSON(*p.Hist)
		}
	}
	if len(spans) > 0 {
		doc.Spans = spansJSON(spans)
	}
	for _, op := range slow {
		doc.SlowOps = append(doc.SlowOps, SlowOpJSON{
			Kind: op.Kind.String(), Nanos: op.Nanos, Dur: op.Dur,
			Root: uint64(op.Root), Spans: spansJSON(op.Spans),
		})
	}
	return doc
}

// WriteJSON writes the JSON exposition document (indented, sorted keys —
// encoding/json sorts map keys).
func WriteJSON(w io.Writer, pts []Point, spans []Span, slow []SlowOp) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildJSON(pts, spans, slow))
}

// Handler serves the registry (and the flight recorder: the span ring
// with ?spans=1 and watchdog slow-op dumps with ?slow=1, both under JSON)
// over HTTP. ?format=prom (default) selects Prometheus text; ?format=json
// selects JSON; ?format=chrome serves the span ring as Chrome
// trace-event JSON for chrome://tracing or Perfetto. The spans tracer
// and watchdog may be nil.
func Handler(reg *Registry, spans *SpanTracer, wd *Watchdog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pts := reg.Gather()
		format := r.URL.Query().Get("format")
		if format == "" {
			// Content negotiation fallback: JSON if requested via Accept.
			if strings.Contains(r.Header.Get("Accept"), "application/json") {
				format = "json"
			} else {
				format = "prom"
			}
		}
		switch format {
		case "json":
			var sps []Span
			if r.URL.Query().Get("spans") == "1" {
				sps = spans.Dump()
			}
			var slow []SlowOp
			if r.URL.Query().Get("slow") == "1" {
				slow = wd.SlowOps()
			}
			w.Header().Set("Content-Type", "application/json")
			if err := WriteJSON(w, pts, sps, slow); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			if err := WriteChromeTrace(w, spans.Dump()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := WritePrometheus(w, pts); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		default:
			http.Error(w, "unknown format "+format+" (want prom, json, or chrome)", http.StatusBadRequest)
		}
	})
}
