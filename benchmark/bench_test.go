package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"mmdb/kvstore"
)

// smokeWindow keeps each smoke run to a few seconds per workload.
const smokeWindow = 2 * time.Second

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// the metrics, the op accounting, the Chrome trace and the self-time
// decomposition.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			res, err := runBenchmark(context.Background(), options{w: w, seed: 7, window: smokeWindow, dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			checkAccounting(t, w, res, 7)
			for _, m := range s.EndToEnd {
				checkMetric(t, res, m.Name, m.Unit)
				if v := res.metric(m.Name); !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, v)
				}
			}
			checkListed(t, res, len(s.EndToEnd))

			tres, err := runBenchmark(context.Background(), options{w: w, seed: 7, window: 2 * smokeWindow, trace: true, dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range s.PerLayer {
				checkMetric(t, tres, m.Name, m.Unit)
			}
			checkListed(t, tres, len(s.PerLayer))
			if got := tres.metric("recovery.txns_replayed"); got != tailBatches {
				t.Errorf("recovery.txns_replayed = %v, want %d", got, tailBatches)
			}
			checkChrome(t, tres.TracePath)

			// The self times are per request and must add up to the
			// caller's round trip; 10% covers the sampled kvstore Get
			// histogram and requests straddling the probes.
			rtt := tres.metric("client.rtt_us")
			sum := tres.metric("server.self_us") + tres.metric("shard.self_us") +
				tres.metric("kvstore.self_us") + tres.metric("engine.commit_us_per_req")
			if math.Abs(sum-rtt) > 0.10*rtt {
				t.Errorf("self times sum to %.2f us, client round trip is %.2f us", sum, rtt)
			}
			// A layer's self time is never negative beyond the error of
			// the sampled Get histogram (shard.self_us is near zero).
			for _, name := range []string{"server.self_us", "shard.self_us", "kvstore.self_us"} {
				if v := tres.metric(name); v < -0.02*rtt {
					t.Errorf("%s = %v, want >= 0", name, v)
				}
			}
		})
	}
}

func (r *result) metric(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

func checkMetric(t *testing.T, res *result, name, unit string) {
	t.Helper()
	for _, m := range res.Metrics {
		if m.Name == name {
			if m.Unit != unit {
				t.Errorf("%s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
			}
			return
		}
	}
	t.Errorf("metric %s missing", name)
}

// checkListed checks that the metrics the last output line carries are
// exactly those BENCHMARK.json names (checkMetric found each of them).
func checkListed(t *testing.T, res *result, want int) {
	t.Helper()
	n := 0
	for _, m := range res.Metrics {
		if m.Listed {
			n++
		}
	}
	if n != want {
		t.Errorf("%d metrics are marked listed, BENCHMARK.json names %d", n, want)
	}
}

// checkAccounting reconciles the benchmark's own counts with the
// router's and the engines'.
func checkAccounting(t *testing.T, w workload, res *result, seed int64) {
	t.Helper()
	if res.Failed != 0 || res.Acked != res.Attempted {
		t.Errorf("%d attempted, %d acknowledged, %d failed", res.Attempted, res.Acked, res.Failed)
	}
	if w.open {
		due := 0
		for g := 0; g < w.generators(); g++ {
			due += len(w.schedule(seed, 0, g, smokeWindow))
		}
		if res.Attempted != due {
			t.Errorf("attempted %d requests, the schedule holds %d", res.Attempted, due)
		}
	}
	if res.RouterOps != float64(res.Routed) {
		t.Errorf("router mmdb_shard_*_ops_total grew by %v, the requests sent imply %d", res.RouterOps, res.Routed)
	}
	if res.Commits < float64(res.Batches) {
		t.Errorf("engines committed %v transactions for %d batches", res.Commits, res.Batches)
	}
}

func checkChrome(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("Chrome trace does not load: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("Chrome trace has no events")
	}
	children := 0
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("bad event %+v", e)
		}
		if _, ok := e.Args["parent"]; !ok {
			t.Fatalf("event %+v has no parent", e)
		}
		if p, _ := e.Args["parent"].(float64); p > 0 {
			children++
		}
	}
	if children == 0 {
		t.Error("no span in the Chrome trace has a parent")
	}
}

// dropper acknowledges a write without applying it: the store contract
// violation the read-back check exists to catch. It drops the dropAt-th
// write and, so that a later write cannot mask the loss, every later
// write to that write's first key.
type dropper struct {
	kvstore.Store
	mu     sync.Mutex
	calls  int    // guarded by mu
	victim string // guarded by mu
}

const dropAt = 50

func (d *dropper) drop(key []byte) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.calls++; d.calls == dropAt {
		d.victim = string(key)
	}
	return d.victim == string(key)
}

func (d *dropper) Put(ctx context.Context, key, val []byte) error {
	if d.drop(key) {
		return nil
	}
	return d.Store.Put(ctx, key, val)
}

func (d *dropper) Batch(ctx context.Context, ops []kvstore.Op) error {
	if d.drop(ops[0].Key) {
		return nil
	}
	return d.Store.Batch(ctx, ops)
}

func TestCheckCatchesDroppedWrite(t *testing.T) {
	for _, name := range []string{"stress-ckpt", "shipped-read"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			wrap := func(s kvstore.Store) kvstore.Store { return &dropper{Store: s} }
			_, err := runBenchmark(context.Background(), options{w: w, seed: 3, window: time.Second, dir: t.TempDir(), wrap: wrap})
			if !errors.Is(err, errCheck) {
				t.Fatalf("run with a dropped write returned %v, want a correctness failure", err)
			}
		})
	}
}

// TestExpectedOverlap checks the read-back's notion of "last": writes
// of one owner that never overlap leave one candidate; writes whose
// calls overlap may land in either order.
func TestExpectedOverlap(t *testing.T) {
	var l writeLog
	l.add([]wrec{
		{id: 1, sent: 10, done: 20, keys: [batchOps]uint32{7}, n: 1, state: acked},
		{id: 2, sent: 30, done: 40, keys: [batchOps]uint32{7, 8}, n: 2, state: acked},
		{id: 3, sent: 35, done: 45, keys: [batchOps]uint32{8}, n: 1, state: acked},
		{id: 4, sent: 50, done: 60, keys: [batchOps]uint32{9}, n: 1, state: unsent},
	})
	want := l.expected()
	if got := want[7]; len(got) != 1 || got[0] != 2 {
		t.Errorf("key 7: %v, want [2]", got)
	}
	if got := want[8]; len(got) != 2 {
		t.Errorf("key 8: %v, want both overlapping writes", got)
	}
	if got := want[9]; len(got) != 1 || got[0] != preloadID(9) {
		t.Errorf("key 9: %v, want only the preloaded value", got)
	}
}
