// Package obs is the engine's observability core: a metrics registry of
// atomic counters, gauges, and lock-free log-bucketed latency histograms,
// plus the flight recorder — a bounded lock-free span ring (span.go) and
// the slow-op watchdog that dumps it (watchdog.go) — and the exposition
// surfaces: Prometheus text, JSON (expo.go), and Chrome trace-event JSON
// (chrome.go).
//
// The package is dependency-free (standard library only) and safe to
// leave enabled on the hot path: recording a counter is one atomic add,
// recording a histogram value is three atomic adds plus a bucket
// increment, and recording a span is a handful of atomic stores into a
// ring buffer. Every Observe/Begin/End/Add method is nil-receiver safe,
// so subsystems can hold optional metric handles without branching.
//
// Metric names follow the convention mmdb_<subsystem>_<name>[_unit]
// (e.g. mmdb_wal_flush_seconds, mmdb_engine_txns_committed_total); the
// registry enforces the shape at registration time, and a guard test
// asserts the unit suffixes.
package obs

import (
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// nameRe is the registered-name shape: mmdb_<subsystem>_<name>[_unit],
// lowercase tokens of [a-z0-9] separated by underscores, at least three
// tokens including the mmdb prefix.
var nameRe = regexp.MustCompile(`^mmdb(_[a-z0-9]+){2,}$`)

// ValidName reports whether name matches the mmdb_<subsystem>_<name>
// naming convention.
func ValidName(name string) bool { return nameRe.MatchString(name) }

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is a float-valued instantaneous measurement.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // math.Float64bits of the value
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// funcMetric is a counter or gauge whose value is read on demand, used to
// expose pre-existing atomic counters without double-counting writes. The
// function is evaluated outside the registry lock, so it may take its
// subsystem's locks freely.
type funcMetric struct {
	name, help string
	counter    bool
	fn         func() float64
}

// MetricKind tags one exposition point.
type MetricKind int

// Metric kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// Point is one gathered metric: a counter or gauge value, or a histogram
// snapshot.
type Point struct {
	Name string
	Help string
	Kind MetricKind
	// Value is the counter or gauge value (unused for histograms).
	Value float64
	// Hist is the histogram snapshot (nil for counters and gauges).
	Hist *Snapshot
}

// Registry holds a set of uniquely named metrics. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use; a
// nil *Registry ignores registrations and gathers nothing, so optional
// instrumentation needs no branching.
type Registry struct {
	mu sync.Mutex // lockorder:level=95
	// names is the duplicate-registration guard. guarded_by:mu
	names map[string]bool
	// counters, gauges, hists, and funcs are the registered metrics.
	// guarded_by:mu
	counters []*Counter
	// guarded_by:mu
	gauges []*Gauge
	// guarded_by:mu
	hists []*Histogram
	// guarded_by:mu
	funcs []funcMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register validates and reserves a metric name. It panics on a malformed
// or duplicate name: both are programming errors caught the first time
// the owning subsystem starts.
// lockcheck:held r.mu
func (r *Registry) register(name string) {
	if !ValidName(name) {
		panic("obs: metric name " + name + " does not match mmdb_<subsystem>_<name>[_unit]")
	}
	if r.names[name] {
		panic("obs: duplicate metric name " + name)
	}
	r.names[name] = true
}

// Counter registers and returns a new counter. A nil registry returns a
// nil (no-op) counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	c := &Counter{name: name, help: help}
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers and returns a new gauge. A nil registry returns a nil
// (no-op) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	g := &Gauge{name: name, help: help}
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram registers and returns a new histogram recording non-negative
// integer values (e.g. nanoseconds, bytes); scale converts a recorded
// value to the exposed unit (ScaleNanosToSeconds for histograms named
// *_seconds that record nanoseconds, ScaleNone for byte or count
// histograms). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name, help string, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	if scale <= 0 {
		panic("obs: histogram " + name + " scale must be positive")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	h := &Histogram{name: name, help: help, scale: scale}
	r.hists = append(r.hists, h)
	return h
}

// CounterFunc registers a counter whose value is fn(), read at gather
// time (outside the registry lock). Use it to expose an existing atomic
// counter without double-counting writes.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	r.funcs = append(r.funcs, funcMetric{name: name, help: help, counter: true,
		fn: func() float64 { return float64(fn()) }})
}

// GaugeFunc registers a gauge whose value is fn(), read at gather time
// (outside the registry lock).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	r.funcs = append(r.funcs, funcMetric{name: name, help: help, fn: fn})
}

// FindHistogram returns the registered histogram named name, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, h := range r.hists {
		if h.name == name {
			return h
		}
	}
	return nil
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.names))
	for n := range r.names {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Gather snapshots every metric, sorted by name. Value functions are
// evaluated after the registry lock is released, so they may take
// subsystem locks (the registry lock is a leaf: nothing else is ever
// acquired while it is held).
func (r *Registry) Gather() []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	funcs := append([]funcMetric(nil), r.funcs...)
	r.mu.Unlock()

	pts := make([]Point, 0, len(counters)+len(gauges)+len(hists)+len(funcs))
	for _, c := range counters {
		pts = append(pts, Point{Name: c.name, Help: c.help, Kind: KindCounter, Value: float64(c.Value())})
	}
	for _, g := range gauges {
		pts = append(pts, Point{Name: g.name, Help: g.help, Kind: KindGauge, Value: g.Value()})
	}
	for _, h := range hists {
		snap := h.Snapshot()
		pts = append(pts, Point{Name: h.name, Help: h.help, Kind: KindHistogram, Hist: &snap})
	}
	for _, f := range funcs {
		kind := KindGauge
		if f.counter {
			kind = KindCounter
		}
		pts = append(pts, Point{Name: f.name, Help: f.help, Kind: kind, Value: f.fn()})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Name < pts[j].Name })
	return pts
}
