package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmdb/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenHandler serves a registry with fixed, deterministic contents so
// the stats JSON output can be pinned byte-for-byte.
func goldenHandler() (*obs.Registry, *obs.SpanTracer, *obs.Watchdog) {
	reg := obs.NewRegistry()
	reg.Counter("mmdb_wal_records_total", "records appended to the log").Add(42)
	reg.Counter("mmdb_ckpt_passes_total", "completed checkpoint passes").Add(3)
	reg.Gauge("mmdb_txn_active", "transactions in flight").Set(2)
	h := reg.Histogram("mmdb_commit_latency_seconds", "commit latency", obs.ScaleNanosToSeconds)
	for _, ns := range []uint64{1_000, 2_000, 4_000, 1_000_000} {
		h.Observe(ns)
	}
	spans := obs.NewSpanTracer(64, 1)
	return reg, spans, obs.NewWatchdog(spans)
}

// TestStatsJSONGolden pins the exact bytes `mmdbctl stats -format json`
// prints for a known registry. The JSON exposition sorts map keys and
// uses fixed indentation, so the output is fully deterministic.
func TestStatsJSONGolden(t *testing.T) {
	reg, spans, wd := goldenHandler()
	srv := httptest.NewServer(obs.Handler(reg, spans, wd))
	defer srv.Close()

	var buf bytes.Buffer
	if err := stats(&buf, srv.URL, "json", false, 0); err != nil {
		t.Fatalf("stats: %v", err)
	}

	golden := filepath.Join("testdata", "stats.json.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("stats -format json output diverged from golden.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	// The golden bytes must also be well-formed JSON with the expected
	// top-level shape, so the golden file cannot silently pin garbage.
	var doc struct {
		Counters   map[string]float64        `json:"counters"`
		Gauges     map[string]float64        `json:"gauges"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.Counters["mmdb_wal_records_total"] != 42 {
		t.Errorf("counter mmdb_wal_records_total = %v, want 42", doc.Counters["mmdb_wal_records_total"])
	}
	if _, ok := doc.Histograms["mmdb_commit_latency_seconds"]; !ok {
		t.Error("histogram mmdb_commit_latency_seconds missing from JSON output")
	}
}

// TestStatsRejectsUnknownFormat pins the client-side format validation.
func TestStatsRejectsUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := stats(&buf, "http://localhost:0", "xml", false, 0); err == nil {
		t.Fatal("stats accepted -format xml")
	}
	if err := stats(&buf, "", "prom", false, 0); err == nil {
		t.Fatal("stats accepted empty -addr")
	}
}

// TestTraceSmoke drives `mmdbctl trace` against a handler whose span
// ring holds a small parented tree, one child a zero-length point fact,
// and checks the written file is valid Chrome trace-event JSON: complete
// ("X") span events carrying parent links, laid out on the root's track.
func TestTraceSmoke(t *testing.T) {
	reg, spans, wd := goldenHandler()
	root := spans.Begin(obs.SpanCommit, obs.SpanNone, 7, 0)
	child := spans.Begin(obs.SpanWALAppend, root, 7, 11)
	spans.End(child)
	spans.End(spans.Begin(obs.SpanTxnAbort, root, 7, 0))
	spans.End(root)
	srv := httptest.NewServer(obs.Handler(reg, spans, wd))
	defer srv.Close()

	out := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := trace(&buf, srv.URL, out); err != nil {
		t.Fatalf("trace: %v", err)
	}
	if !strings.Contains(buf.String(), out) {
		t.Errorf("confirmation line %q does not mention output file %s", buf.String(), out)
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Tid  uint64            `json:"tid"`
			Args map[string]uint64 `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid Chrome trace JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	var complete, childSpans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("trace event %q has phase %q, want X", ev.Name, ev.Ph)
			continue
		}
		complete++
		if ev.Args["parent"] != uint64(obs.SpanNone) {
			childSpans++
			if ev.Args["parent"] != uint64(root) {
				t.Errorf("child span parent arg = %d, want %d", ev.Args["parent"], root)
			}
			if ev.Tid != uint64(root) {
				t.Errorf("child span on track %d, want root track %d", ev.Tid, root)
			}
		}
	}
	if complete != 3 || childSpans != 2 {
		t.Errorf("trace events: %d complete (%d children), want 3 (2)", complete, childSpans)
	}
}

// TestTraceStdout checks "-o -" streams the raw trace JSON to the writer
// instead of a file.
func TestTraceStdout(t *testing.T) {
	reg, spans, wd := goldenHandler()
	spans.End(spans.Begin(obs.SpanCheckpoint, obs.SpanNone, 1, 2))
	srv := httptest.NewServer(obs.Handler(reg, spans, wd))
	defer srv.Close()

	var buf bytes.Buffer
	if err := trace(&buf, srv.URL, "-"); err != nil {
		t.Fatalf("trace -o -: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("stdout trace is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("stdout trace missing traceEvents")
	}
}
