package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite exposition golden files")

// goldenFixture builds a deterministic registry for the exposition
// golden tests.
func goldenFixture() *Registry {
	r := NewRegistry()
	c := r.Counter("mmdb_test_txns_committed_total", "Committed transactions.")
	g := r.Gauge("mmdb_test_dirty_ratio", "Fraction of dirty segments.")
	h := r.Histogram("mmdb_test_commit_seconds", "Commit latency.", ScaleNanosToSeconds)
	b := r.Histogram("mmdb_test_flush_batch_bytes", "Flush batch size.", ScaleNone)
	c.Add(17)
	g.Set(0.25)
	for _, ns := range []uint64{1500, 1500, 23_000, 1_200_000} {
		h.Observe(ns)
	}
	b.Observe(4096)
	b.Observe(96)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch (run with -update-golden to refresh):\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestPrometheusGolden: stable Prometheus text output.
func TestPrometheusGolden(t *testing.T) {
	r := goldenFixture()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Gather()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", buf.Bytes())
}

// TestJSONGolden: stable JSON output.
func TestJSONGolden(t *testing.T) {
	r := goldenFixture()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r.Gather(), nil, nil); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json", buf.Bytes())
}

// TestPrometheusCumulative: histogram le buckets are cumulative and end
// at +Inf = count.
func TestPrometheusCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("mmdb_test_cum_bytes", "", ScaleNone)
	h.Observe(5)
	h.Observe(5)
	h.Observe(700)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Gather()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`mmdb_test_cum_bytes_bucket{le="5"} 2`,
		`mmdb_test_cum_bytes_bucket{le="709"} 3`,
		`mmdb_test_cum_bytes_bucket{le="+Inf"} 3`,
		"mmdb_test_cum_bytes_sum 710",
		"mmdb_test_cum_bytes_count 3",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHandler: format negotiation on the HTTP surface.
func TestHandler(t *testing.T) {
	h := Handler(goldenFixture(), nil, nil)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte("# TYPE mmdb_test_commit_seconds histogram")) {
		t.Fatalf("prom default: code=%d body=%s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if rec.Code != 200 {
		t.Fatalf("json: code=%d", rec.Code)
	}
	var doc MetricsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["mmdb_test_txns_committed_total"] != 17 {
		t.Fatalf("json counters = %v", doc.Counters)
	}
	if hj := doc.Histograms["mmdb_test_commit_seconds"]; hj.Count != 4 || hj.P50 <= 0 {
		t.Fatalf("json histogram = %+v", hj)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=xml", nil))
	if rec.Code != 400 {
		t.Fatalf("unknown format: code=%d, want 400", rec.Code)
	}
}

// TestHandlerSpansAndChrome: the span ring and watchdog dumps are served
// under JSON, and format=chrome emits loadable trace-event JSON.
func TestHandlerSpansAndChrome(t *testing.T) {
	st := NewSpanTracer(32, 1)
	root := st.BeginSampled(SpanCommit, 1, 0)
	child := st.Begin(SpanWALAppend, root, 1, 0)
	st.End(child)
	st.End(root)
	wd := NewWatchdog(st)
	wd.SetThresholds(1, 0) // 1ns: everything trips
	wd.Check(WatchCommit, root, 5_000)
	h := Handler(goldenFixture(), st, wd)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json&spans=1&slow=1", nil))
	if rec.Code != 200 {
		t.Fatalf("json: code=%d", rec.Code)
	}
	var doc MetricsJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 {
		t.Fatalf("json spans = %d, want 2", len(doc.Spans))
	}
	if doc.Spans[1].Parent != uint64(root) || doc.Spans[1].Kind != "wal_append" {
		t.Fatalf("child span JSON = %+v", doc.Spans[1])
	}
	if len(doc.SlowOps) != 1 || doc.SlowOps[0].Kind != "commit" || len(doc.SlowOps[0].Spans) != 2 {
		t.Fatalf("slow ops JSON = %+v", doc.SlowOps)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=chrome", nil))
	if rec.Code != 200 {
		t.Fatalf("chrome: code=%d", rec.Code)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &chrome); err != nil {
		t.Fatal(err)
	}
	// Every span is one complete ("X") event carrying a duration.
	if len(chrome.TraceEvents) != 2 {
		t.Fatalf("chrome events = %d, want 2", len(chrome.TraceEvents))
	}
	for _, ev := range chrome.TraceEvents {
		if _, ok := ev["dur"]; ev["ph"] != "X" || !ok {
			t.Fatalf("chrome event %v, want ph X with dur", ev)
		}
	}
}

// TestPrometheusHelpEscaping: backslashes and newlines in help text must
// be escaped so they cannot break the line-oriented text format.
func TestPrometheusHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("mmdb_test_escape_total", "Line one.\nLine \\ two.").Add(1)
	r.Histogram("mmdb_test_escape_seconds", "Hist\nhelp.", ScaleNanosToSeconds).Observe(10)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Gather()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`# HELP mmdb_test_escape_total Line one.\nLine \\ two.`,
		`# HELP mmdb_test_escape_seconds Hist\nhelp.`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// No raw (unescaped) newline may survive inside a HELP line: every
	// line starting with # HELP must be a complete comment line.
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		if bytes.HasPrefix(line, []byte("Line ")) || bytes.HasPrefix(line, []byte("help.")) {
			t.Fatalf("raw newline leaked into exposition: %q", line)
		}
	}
}
