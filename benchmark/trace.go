package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/netproto"
	"mmdb/kvstore"
)

// Span kinds: the request a span served.
const (
	kindGet uint8 = iota
	kindPut
	kindBatch
	kindEncode
	kindDecode
)

var kindNames = [...]string{"Get", "Put", "Batch", "netproto.encode", "netproto.decode"}

// span is one timed call at a boundary the benchmark controls. Times
// are on the run clock. A root is the caller's call into the store API
// (client.Client over the wire, the router in process); its child is
// the store wrapper's call into the router, linked by the request ID a
// write carries in its value or, for a Get, by key and containment.
type span struct {
	start, end int64
	id         uint64 // request ID of a write; 0 for a Get
	key        uint32 // first key
	kind       uint8
	tid        uint16
	child      int32 // index of the linked store span, -1 if none
}

func (s span) dur() int64 { return s.end - s.start }

// maxFrames bounds the client frames captured for the codec timing.
const maxFrames = 4096

// tracer collects the spans and counts of a traced phase. Recording is
// on only while on is set, so the same wrapped stack also runs the
// untraced comparison phase.
type tracer struct {
	on    atomic.Bool
	clock func() int64

	mu     sync.Mutex
	stores []span   // guarded by mu: store wrapper spans
	frames [][]byte // guarded by mu: first maxFrames client frames

	clientWrites, clientBytes, serverWrites atomic.Uint64
}

func newTracer(clock func() int64) *tracer { return &tracer{clock: clock} }

// seams returns the wrappers that feed t.
func (t *tracer) seams() seams {
	return seams{
		store:    func(s kvstore.Store) kvstore.Store { return &tracedStore{Store: s, t: t} },
		conn:     func(c net.Conn) net.Conn { return &clientConn{Conn: c, t: t} },
		listener: func(l net.Listener) net.Listener { return &tracedListener{Listener: l, t: t} },
	}
}

func (t *tracer) addStore(s span) {
	t.mu.Lock()
	t.stores = append(t.stores, s)
	t.mu.Unlock()
}

// keyIndex parses a benchmark key ("k" and 15 digits).
func keyIndex(key []byte) uint32 {
	var k uint32
	for _, c := range key[1:] {
		k = k*10 + uint32(c-'0')
	}
	return k
}

// tracedStore times every call the server (or an in-process caller)
// makes into the router.
type tracedStore struct {
	kvstore.Store
	t *tracer
}

func (s *tracedStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if !s.t.on.Load() {
		return s.Store.Get(ctx, key)
	}
	t0 := s.t.clock()
	v, ok, err := s.Store.Get(ctx, key)
	s.t.addStore(span{start: t0, end: s.t.clock(), key: keyIndex(key), kind: kindGet})
	return v, ok, err
}

func (s *tracedStore) Put(ctx context.Context, key, val []byte) error {
	if !s.t.on.Load() {
		return s.Store.Put(ctx, key, val)
	}
	t0 := s.t.clock()
	err := s.Store.Put(ctx, key, val)
	s.t.addStore(span{start: t0, end: s.t.clock(), id: binary.LittleEndian.Uint64(val), key: keyIndex(key), kind: kindPut})
	return err
}

func (s *tracedStore) Batch(ctx context.Context, ops []kvstore.Op) error {
	if !s.t.on.Load() {
		return s.Store.Batch(ctx, ops)
	}
	t0 := s.t.clock()
	err := s.Store.Batch(ctx, ops)
	s.t.addStore(span{start: t0, end: s.t.clock(), id: binary.LittleEndian.Uint64(ops[0].Val), key: keyIndex(ops[0].Key), kind: kindBatch})
	return err
}

// clientConn counts the client's socket writes and captures its first
// frames (the client writes each frame with one Write).
type clientConn struct {
	net.Conn
	t *tracer
}

func (c *clientConn) Write(b []byte) (int, error) {
	if c.t.on.Load() {
		c.t.clientWrites.Add(1)
		c.t.clientBytes.Add(uint64(len(b)))
		c.t.mu.Lock()
		if len(c.t.frames) < maxFrames {
			c.t.frames = append(c.t.frames, append([]byte(nil), b...))
		}
		c.t.mu.Unlock()
	}
	return c.Conn.Write(b)
}

// tracedListener wraps each accepted connection to count the server's
// socket writes.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, t: l.t}, nil
}

type serverConn struct {
	net.Conn
	t *tracer
}

func (c *serverConn) Write(b []byte) (int, error) {
	if c.t.on.Load() {
		c.t.serverWrites.Add(1)
	}
	return c.Conn.Write(b)
}

// link sets each root's child to the store span that served it: by
// request ID for writes, and for Gets of the same key by containment.
// Gets are matched greedily in order of their end, each taking the
// earliest-starting unclaimed store span it contains: a root that ends
// later can use any span an earlier-ending one can except those that
// start before it, so this matches as many as any assignment. It
// returns the number of roots left unlinked.
func link(roots, stores []span) int {
	byID := make(map[uint64]int32, len(stores))
	byKey := make(map[uint32][]int32)
	for i := range stores {
		if stores[i].kind == kindGet {
			byKey[stores[i].key] = append(byKey[stores[i].key], int32(i))
		} else {
			byID[stores[i].id] = int32(i)
		}
	}
	for _, l := range byKey {
		sort.Slice(l, func(a, b int) bool { return stores[l[a]].start < stores[l[b]].start })
	}
	claimed := make([]bool, len(stores))
	order := make([]int, len(roots))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return roots[order[a]].end < roots[order[b]].end })
	unlinked := 0
	for _, i := range order {
		rt := &roots[i]
		rt.child = -1
		if rt.kind != kindGet {
			if c, ok := byID[rt.id]; ok && !claimed[c] {
				rt.child = c
				claimed[c] = true
			}
		} else {
			for _, c := range byKey[rt.key] {
				s := &stores[c]
				if !claimed[c] && s.start >= rt.start && s.end <= rt.end {
					rt.child = c
					claimed[c] = true
					break
				}
			}
		}
		if rt.child < 0 {
			unlinked++
		}
	}
	return unlinked
}

// codecTiming times the wire codec on frames: decode is ReadFrame plus
// the payload decoder, encode is the payload encoder plus AppendFrame,
// both as the client and server call them. Each pass covers every
// frame; passes repeat until minCodecTime has run.
func codecTiming(frames [][]byte, clock func() int64) (encNs, decNs float64, spans []span, err error) {
	const minCodecTime = 50 * time.Millisecond
	type decoded struct {
		typ      byte
		id       uint64
		key, val []byte
		ops      []kvstore.Op
	}
	dec := make([]decoded, len(frames))
	var buf []byte
	// decodeAll decodes every frame; with keep it gives each frame its
	// own buffer and retains the result for the encode passes.
	decodeAll := func(keep bool) error {
		for i, f := range frames {
			if keep {
				buf = nil
			}
			fr, b, err := netproto.ReadFrame(bytes.NewReader(f), buf)
			buf = b
			if err != nil {
				return err
			}
			d := decoded{typ: fr.Type, id: fr.ReqID}
			switch fr.Type {
			case netproto.TGet:
				d.key, err = netproto.DecodeKey(fr.Pay)
			case netproto.TPut:
				d.key, d.val, err = netproto.DecodePut(fr.Pay)
			case netproto.TBatch:
				d.ops, err = netproto.DecodeBatch(fr.Pay)
			default:
				err = fmt.Errorf("unexpected frame type %#x", fr.Type)
			}
			if err != nil {
				return err
			}
			if keep {
				dec[i] = d
			}
		}
		return nil
	}
	var out, pay []byte
	encodeAll := func() {
		for _, d := range dec {
			switch d.typ {
			case netproto.TGet:
				pay = netproto.AppendKey(pay[:0], d.key)
			case netproto.TPut:
				pay = netproto.AppendPut(pay[:0], d.key, d.val)
			case netproto.TBatch:
				pay = netproto.AppendBatch(pay[:0], d.ops)
			}
			out = netproto.AppendFrame(out[:0], d.typ, d.id, pay)
		}
	}
	if len(frames) == 0 {
		return 0, 0, nil, fmt.Errorf("no frames to time")
	}
	if err := decodeAll(true); err != nil {
		return 0, 0, nil, fmt.Errorf("decoding the workload's frames: %w", err)
	}
	var decT, encT int64
	var passes int
	for decT < int64(minCodecTime) {
		t0 := clock()
		if err := decodeAll(false); err != nil {
			return 0, 0, nil, fmt.Errorf("decoding the workload's frames: %w", err)
		}
		t1 := clock()
		decT += t1 - t0
		passes++
		spans = append(spans, span{start: t0, end: t1, kind: kindDecode, child: -1})
	}
	decNs = float64(decT) / float64(passes*len(frames))
	passes = 0
	for encT < int64(minCodecTime) {
		t0 := clock()
		encodeAll()
		t1 := clock()
		encT += t1 - t0
		passes++
		spans = append(spans, span{start: t0, end: t1, kind: kindEncode, child: -1})
	}
	encNs = float64(encT) / float64(passes*len(frames))
	return encNs, decNs, spans, nil
}

// encodeFrames builds the frames an in-process workload's requests
// would be on the wire, for the codec timing.
func encodeFrames(r *runner, n int) [][]byte {
	ring := r.w.ring(r.seed, 0)
	frames := make([][]byte, 0, n)
	for i := 0; len(frames) < n; i++ {
		ops := make([]kvstore.Op, batchOps)
		for j := range ops {
			k := ring[(i*batchOps+j)%len(ring)]
			val := newValueBuf()
			putValue(val, requestID(1, uint64(i+1)), k)
			ops[j] = kvstore.Op{Key: r.ks.keys[k], Val: val}
		}
		frames = append(frames, netproto.AppendFrame(nil, netproto.TBatch, uint64(i+1), netproto.AppendBatch(nil, ops)))
	}
	return frames
}

// maxTraceRoots bounds the requests written to the Chrome trace.
const maxTraceRoots = 20000

// writeChrome writes the first maxTraceRoots roots, their store spans
// and the codec spans as Chrome trace-event JSON ("X" events, times in
// microseconds; args carry each span's id and parent).
func writeChrome(path string, roots, stores, codec []span, inProcess bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	rootLayer := "client"
	if inProcess {
		rootLayer = "caller"
	}
	var events []event
	add := func(name, cat string, s span, tid int, id, parent int) {
		events = append(events, event{Name: name, Cat: cat, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: tid, Args: map[string]any{"id": id, "parent": parent, "key": s.key}})
	}
	sorted := append([]span(nil), roots...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].start < sorted[b].start })
	if len(sorted) > maxTraceRoots {
		sorted = sorted[:maxTraceRoots]
	}
	next := 1
	for _, rt := range sorted {
		id := next
		next++
		add(rootLayer+"."+kindNames[rt.kind], rootLayer, rt, int(rt.tid), id, 0)
		if rt.child >= 0 {
			add("store."+kindNames[rt.kind], "store", stores[rt.child], 10000+int(rt.tid), next, id)
			next++
		}
	}
	for _, s := range codec {
		add(kindNames[s.kind], "netproto", s, 20000, next, 0)
		next++
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
