package kvstore

import (
	"fmt"
	"testing"
)

// TestOpLatencyMetrics checks that the store registers its operation
// histograms on the database's registry under the kvstore namespace and
// that each operation records a sample.
func TestOpLatencyMetrics(t *testing.T) {
	s := mustOpen(t, testConfig(t))
	defer s.Close()

	if err := s.Put(bg, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	// Get latency is sampled every getSampleEvery-th call, so issue a full
	// sampling period to guarantee at least one recorded sample.
	for i := 0; i < getSampleEvery; i++ {
		if _, _, err := s.Get(bg, []byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Scan(nil, func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(bg, func(b *BatchBuilder) error { return b.Put([]byte("k2"), []byte("v2")) }); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete(bg, []byte("k")); err != nil {
		t.Fatal(err)
	}

	reg := s.DB().MetricsRegistry()
	want := map[string]uint64{
		"mmdb_kvstore_put_seconds":    1,
		"mmdb_kvstore_get_seconds":    1,
		"mmdb_kvstore_scan_seconds":   1,
		"mmdb_kvstore_batch_seconds":  1,
		"mmdb_kvstore_delete_seconds": 1,
	}
	for name, min := range want {
		h := reg.FindHistogram(name)
		if h == nil {
			t.Errorf("histogram %s not registered", name)
			continue
		}
		if h.Count() < min {
			t.Errorf("%s count = %d, want >= %d", name, h.Count(), min)
		}
	}
}

// TestStatsRaceWithOps hammers Stats and the span ring from the kvstore
// layer while operations run; meaningful under -race (the race gate
// includes ./kvstore/...).
func TestStatsRaceWithOps(t *testing.T) {
	s := mustOpen(t, testConfig(t))
	defer s.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			key := []byte(fmt.Sprintf("key-%03d", i%20))
			if err := s.Put(bg, key, []byte("v")); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			if _, _, err := s.Get(bg, key); err != nil {
				t.Errorf("Get: %v", err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		_ = s.EngineStats()
		_ = s.DB().MetricsRegistry().Gather()
		_ = s.DB().Spans()
	}
}
