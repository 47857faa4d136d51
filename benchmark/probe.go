package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mmdb"
	"mmdb/internal/obs"
)

// histNames are the engine and kvstore histograms a probe snapshots on
// every shard (merged across shards).
var histNames = []string{
	"mmdb_engine_commit_seconds",
	"mmdb_commit_attr_lock_wait_seconds",
	"mmdb_commit_attr_wal_append_seconds",
	"mmdb_commit_attr_flush_wait_seconds",
	"mmdb_commit_attr_cou_copy_seconds",
	"mmdb_lockmgr_wait_seconds",
	"mmdb_wal_flush_seconds",
	"mmdb_engine_checkpoint_seconds",
	"mmdb_engine_lsn_wait_seconds",
	"mmdb_backup_segment_write_seconds",
	"mmdb_kvstore_batch_seconds",
	"mmdb_kvstore_put_seconds",
	"mmdb_kvstore_get_seconds",
}

// probe is a snapshot of every counter a window's metrics are deltas
// of, read through public accessors only.
type probe struct {
	cpu        time.Duration // process user+sys (getrusage)
	stat       cpuTimes
	totalAlloc uint64
	mallocs    uint64
	gcCPU      float64
	allCPU     float64
	eng        []mmdb.Stats
	hists      map[string]obs.Snapshot
	router     map[string]float64
}

func takeProbe(st *stack) probe {
	p := probe{cpu: processCPU(), stat: readCPUTimes(), hists: map[string]obs.Snapshot{}, router: map[string]float64{}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.totalAlloc, p.mallocs = ms.TotalAlloc, ms.Mallocs
	samples := []runtimemetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() == runtimemetrics.KindFloat64 && samples[1].Value.Kind() == runtimemetrics.KindFloat64 {
		p.gcCPU, p.allCPU = samples[0].Value.Float64(), samples[1].Value.Float64()
	}
	for i := 0; i < st.router.NumShards(); i++ {
		db := st.router.Shard(i).DB()
		p.eng = append(p.eng, db.Stats())
		reg := db.MetricsRegistry()
		for _, name := range histNames {
			snap := reg.FindHistogram(name).Snapshot()
			s := p.hists[name]
			s.Merge(snap)
			s.Scale = snap.Scale
			p.hists[name] = s
		}
	}
	for _, pt := range st.router.Registry().Gather() {
		if pt.Kind == obs.KindCounter {
			p.router[pt.Name] = pt.Value
		}
	}
	return p
}

// window is the difference between two probes.
type window struct {
	a, b probe
}

// hist returns the histogram observations made between the probes.
func (w window) hist(name string) obs.Snapshot {
	a, b := w.a.hists[name], w.b.hists[name]
	d := obs.Snapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max, Scale: b.Scale}
	if b.Buckets != nil {
		d.Buckets = make([]uint64, len(b.Buckets))
		for i := range b.Buckets {
			d.Buckets[i] = b.Buckets[i]
			if a.Buckets != nil {
				d.Buckets[i] -= a.Buckets[i]
			}
		}
	}
	return d
}

// eng sums an engine counter's growth over every shard.
func (w window) eng(f func(mmdb.Stats) uint64) float64 {
	var n float64
	for i := range w.b.eng {
		n += float64(f(w.b.eng[i]) - f(w.a.eng[i]))
	}
	return n
}

// shardOps returns each shard's routed-op growth (mmdb_shard_NNN_ops_total).
func (w window) shardOps() []float64 {
	var out []float64
	for i := range w.b.eng {
		name := fmt.Sprintf("mmdb_shard_%03d_ops_total", i)
		out = append(out, w.b.router[name]-w.a.router[name])
	}
	return out
}

func (w window) cpu() time.Duration { return w.b.cpu - w.a.cpu }

// sumMicros returns a nanosecond histogram's total in microseconds.
func sumMicros(s obs.Snapshot) float64 { return float64(s.Sum) / 1e3 }

// meanMicros returns a nanosecond histogram's mean in microseconds, 0
// when it is empty.
func meanMicros(s obs.Snapshot) float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count) / 1e3
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set (getrusage ru_maxrss,
// KiB on Linux) in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTimes is the aggregate line of /proc/stat, in clock ticks.
type cpuTimes struct {
	busy, idle, steal, total uint64
}

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(fields[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	t := cpuTimes{busy: v[0] + v[1] + v[2] + v[5] + v[6], idle: v[3] + v[4], steal: v[7]}
	t.total = t.busy + t.idle + t.steal
	return t
}

// stealFrac and busyFrac are the host's CPU steal and busy shares
// between the probes (all processes, all cores).
func (w window) stealFrac() float64 {
	d := float64(w.b.stat.total - w.a.stat.total)
	if d == 0 {
		return 0
	}
	return float64(w.b.stat.steal-w.a.stat.steal) / d
}

func (w window) busyFrac() float64 {
	d := float64(w.b.stat.total - w.a.stat.total)
	if d == 0 {
		return 0
	}
	return float64(w.b.stat.busy-w.a.stat.busy) / d
}

// host is the run record every result carries.
type host struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	StealFrac  float64 `json:"cpu_steal_frac"`
	BusyFrac   float64 `json:"cpu_busy_frac"`
	LoadAvg    string  `json:"loadavg"`
}

func hostRecord(seed int64, w window) host {
	h := host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     gitCommit("."),
		Seed:       seed,
		StealFrac:  w.stealFrac(),
		BusyFrac:   w.busyFrac(),
		LoadAvg:    firstLine("/proc/loadavg"),
	}
	return h
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
}

// gitCommit reads HEAD of the git checkout at dir without running git;
// "unknown" outside a checkout.
func gitCommit(dir string) string {
	head := firstLine(filepath.Join(dir, ".git", "HEAD"))
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		if len(head) == 40 {
			return head
		}
		return "unknown"
	}
	if c := firstLine(filepath.Join(dir, ".git", ref)); len(c) == 40 {
		return c
	}
	b, err := os.ReadFile(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if c, r, ok := strings.Cut(line, " "); ok && r == ref {
			return c
		}
	}
	return "unknown"
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// newLatencies returns a histogram of nanosecond latencies. It is the
// engine's own lock-free histogram, so the benchmark's memory does not
// grow with the number of requests and peak_rss_mb measures the stack.
func newLatencies() *obs.Histogram {
	return obs.NewRegistry().Histogram("mmdb_bench_latency_nanoseconds", "", obs.ScaleNone)
}

// quantileMs returns a latency histogram's q-quantile in milliseconds.
func quantileMs(h *obs.Histogram, q float64) float64 { return histQuantile(h.Snapshot(), q) / 1e6 }

// histQuantile estimates the q-quantile of a histogram snapshot by
// linear interpolation inside the bucket that holds the target rank, in
// the histogram's exposed unit. Interpolating keeps the estimate
// continuous: a bucket's upper bound alone would read the same on most
// runs.
func histQuantile(s obs.Snapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := bucketBounds(i)
			return (lo + (hi-lo)*(rank-cum)/float64(c)) * s.Scale
		}
		cum += float64(c)
	}
	return float64(s.Max) * s.Scale
}

// bucketBounds returns bucket i's value range [lo, hi) in obs's
// histogram layout: one bucket per value 0..9, then 90 buckets per
// decade keyed by the value's two leading digits.
func bucketBounds(i int) (lo, hi float64) {
	if i < 10 {
		return float64(i), float64(i + 1)
	}
	unit := math.Pow(10, float64((i-10)/90))
	lead := float64((i-10)%90 + 10)
	return lead * unit, (lead + 1) * unit
}
