package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mmdb/internal/obs"
	"mmdb/kvstore"
)

// maxInflight bounds each open-loop connection's requests in flight, to
// the server's own per-connection bound; an arrival that finds every
// slot busy waits, and the wait counts in its latency.
const maxInflight = 64

// drainLimit bounds how long a phase waits past its window for
// requests still due or in flight; whatever has not been sent by then
// counts as failed.
const drainLimit = 30 * time.Second

// runner holds what persists across one run's phases.
type runner struct {
	w      workload
	seed   int64
	ks     *keyspace
	origin time.Time
	log    writeLog
	// pos and seq continue each closed-loop caller's ring position and
	// request sequence from one phase to the next.
	pos []int
	seq []uint64
}

func newRunner(w workload, seed int64) *runner {
	g := w.generators()
	return &runner{w: w, seed: seed, ks: newKeyspace(), origin: time.Now(),
		pos: make([]int, g), seq: make([]uint64, g)}
}

// clock is the run clock: nanoseconds since the runner was made.
func (r *runner) clock() int64 { return int64(time.Since(r.origin)) }

// phase is what one measured window produced.
type phase struct {
	start, end int64          // run clock: window start, last request finished
	writeLat   *obs.Histogram // ns
	readLat    *obs.Histogram // ns
	late       *obs.Histogram // ns: generator lateness (open loop) or issue gap (closed)

	attempted, acked, failed int // requests
	ops                      int // user ops acknowledged (a batch is 5)
	puts, batches            int // acknowledged writes by kind
	routed                   int // router ops_total increments the acked requests imply
	userBytes                int64
	roots                    []span // caller-side spans (traced phases only)
	readErr                  error  // first malformed value a Get returned
}

func newPhase(start int64) *phase {
	return &phase{start: start, writeLat: newLatencies(), readLat: newLatencies(), late: newLatencies()}
}

func (p *phase) elapsed() time.Duration { return time.Duration(p.end - p.start) }

// countWrite counts one write request into p.
func (r *runner) countWrite(p *phase, rec *wrec) {
	p.attempted++
	if rec.state != acked {
		p.failed++
		return
	}
	p.acked++
	p.ops += int(rec.n)
	p.userBytes += int64(rec.n) * (keyBytes + valBytes)
	if rec.n == 1 {
		p.puts++
		p.routed++
	} else {
		p.batches++
		p.routed += r.batchShards(rec.keys[:rec.n])
	}
}

// run drives one measured window of length window against st. With
// traced set, every caller records a root span per request.
func (r *runner) run(ctx context.Context, st *stack, window time.Duration, phaseNo int, traced bool) *phase {
	if r.w.open {
		return r.runOpen(ctx, st, window, phaseNo, traced)
	}
	return r.runClosed(ctx, st, window, traced)
}

// batchShards counts the shards a batch's keys route to: the router
// counts one op per shard part.
func (r *runner) batchShards(keys []uint32) int {
	var seen [numShards]bool
	n := 0
	for _, k := range keys {
		s := r.ks.shardOf[k]
		if !seen[s] {
			seen[s] = true
			n++
		}
	}
	return n
}

// runOpen is the open loop: each connection's owner walks its
// pre-generated Poisson schedule, handing every due batch to one of
// maxInflight workers; latency runs from when the batch was due.
func (r *runner) runOpen(ctx context.Context, st *stack, window time.Duration, phaseNo int, traced bool) *phase {
	gens := r.w.generators()
	scheds := make([][]arrival, gens)
	for g := range scheds {
		scheds[g] = r.w.schedule(r.seed, phaseNo, g, window)
	}
	p := newPhase(r.clock())
	hardStop := p.start + int64(window+drainLimit)
	type genOut struct {
		recs  []wrec // by schedule index; never-sent entries stay unsent
		roots [][]span
	}
	outs := make([]genOut, gens)
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		sched := scheds[g]
		o := &outs[g]
		o.recs = make([]wrec, len(sched))
		o.roots = make([][]span, maxInflight)
		store := st.stores[g]
		jobs := make(chan int)
		var workers sync.WaitGroup
		for wk := 0; wk < maxInflight; wk++ {
			workers.Add(1)
			go func(wk int) {
				defer workers.Done()
				vals := [batchOps][]byte{newValueBuf(), newValueBuf(), newValueBuf(), newValueBuf(), newValueBuf()}
				ops := make([]kvstore.Op, batchOps)
				for i := range jobs {
					a := &sched[i]
					id := requestID(g+1, uint64(phaseNo)<<32|uint64(i+1))
					for j, k := range a.keys {
						putValue(vals[j], id, k)
						ops[j] = kvstore.Op{Key: r.ks.keys[k], Val: vals[j]}
					}
					rec := wrec{id: id, keys: a.keys, n: batchOps, sent: r.clock(), state: acked}
					if err := store.Batch(ctx, ops); err != nil {
						rec.state = failed
					}
					rec.done = r.clock()
					o.recs[i] = rec
					if traced {
						o.roots[wk] = append(o.roots[wk], span{start: rec.sent, end: rec.done,
							id: id, key: a.keys[0], kind: kindBatch, tid: uint16(g*maxInflight + wk)})
					}
				}
			}(wk)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer workers.Wait()
			defer close(jobs)
			for i := range sched {
				due := p.start + int64(sched[i].due)
				if d := due - r.clock(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				if r.clock() > hardStop {
					return // the rest stay unsent
				}
				jobs <- i
			}
		}()
	}
	wg.Wait()
	p.end = r.clock()
	for g := range outs {
		o := &outs[g]
		for i := range o.recs {
			rec := &o.recs[i]
			r.countWrite(p, rec)
			if rec.state == acked {
				due := p.start + int64(scheds[g][i].due)
				p.writeLat.Observe(uint64(rec.done - due))
				p.late.Observe(uint64(rec.sent - due))
			}
		}
		r.log.add(o.recs)
		for _, b := range o.roots {
			p.roots = append(p.roots, b...)
		}
	}
	return p
}

// runClosed is the closed loop: each caller issues its next request as
// soon as the previous one returns, until the window ends.
func (r *runner) runClosed(ctx context.Context, st *stack, window time.Duration, traced bool) *phase {
	gens := r.w.generators()
	rings := make([]opRing, gens)
	for g := range rings {
		rings[g] = r.w.ring(r.seed, g)
	}
	// A caller's writes never overlap, so the check needs only the last
	// write to each of its keys (and any failed one): last holds it by
	// the key's slot k/gens, keeping the benchmark's memory fixed.
	type callerOut struct {
		phase
		last       []wrec
		failedRecs []wrec
	}
	outs := make([]callerOut, gens)
	var stop atomic.Bool
	p := newPhase(r.clock())
	timer := time.AfterFunc(window, func() { stop.Store(true) })
	defer timer.Stop()
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			o := &outs[g]
			o.last = make([]wrec, numKeys/gens)
			store := st.stores[g%len(st.stores)]
			ring := rings[g]
			pos := r.pos[g]
			vals := [batchOps][]byte{newValueBuf(), newValueBuf(), newValueBuf(), newValueBuf(), newValueBuf()}
			ops := make([]kvstore.Op, batchOps)
			prev := r.clock()
			for !stop.Load() {
				op := ring[pos%len(ring)]
				if op&readBit != 0 {
					pos++
					k := op &^ readBit
					t0 := r.clock()
					v, ok, err := store.Get(ctx, r.ks.keys[k])
					t1 := r.clock()
					o.attempted++
					p.late.Observe(uint64(t0 - prev))
					prev = t1
					if traced {
						o.roots = append(o.roots, span{start: t0, end: t1, key: k, kind: kindGet, tid: uint16(g)})
					}
					if err != nil {
						o.failed++
						continue
					}
					if o.readErr == nil {
						if !ok {
							o.readErr = fmt.Errorf("key %d: missing", k)
						} else if _, perr := parseValue(v, k); perr != nil {
							o.readErr = perr
						}
					}
					o.acked++
					o.ops++
					o.routed++
					p.readLat.Observe(uint64(t1 - t0))
					continue
				}
				r.seq[g]++
				rec := wrec{id: requestID(g+1, r.seq[g]), state: acked}
				kind := kindPut
				var err error
				if r.w.readFrac > 0 {
					pos++
					rec.keys[0], rec.n = op, 1
					putValue(vals[0], rec.id, op)
					rec.sent = r.clock()
					err = store.Put(ctx, r.ks.keys[op], vals[0])
				} else {
					kind = kindBatch
					rec.n = batchOps
					for j := range ops {
						k := ring[pos%len(ring)]
						pos++
						rec.keys[j] = k
						putValue(vals[j], rec.id, k)
						ops[j] = kvstore.Op{Key: r.ks.keys[k], Val: vals[j]}
					}
					rec.sent = r.clock()
					err = store.Batch(ctx, ops)
				}
				rec.done = r.clock()
				p.late.Observe(uint64(rec.sent - prev))
				prev = rec.done
				if traced {
					o.roots = append(o.roots, span{start: rec.sent, end: rec.done, id: rec.id, key: rec.keys[0], kind: kind, tid: uint16(g)})
				}
				if err != nil {
					rec.state = failed
				}
				r.countWrite(&o.phase, &rec)
				if err != nil {
					o.failedRecs = append(o.failedRecs, rec)
					continue
				}
				p.writeLat.Observe(uint64(rec.done - rec.sent))
				for _, k := range rec.keys[:rec.n] {
					o.last[int(k)/gens] = rec
				}
			}
			r.pos[g] = pos
		}(g)
	}
	wg.Wait()
	p.end = r.clock()
	for g := range outs {
		o := &outs[g]
		p.attempted += o.attempted
		p.acked += o.acked
		p.failed += o.failed
		p.ops += o.ops
		p.puts += o.puts
		p.batches += o.batches
		p.routed += o.routed
		p.userBytes += o.userBytes
		p.roots = append(p.roots, o.roots...)
		if p.readErr == nil {
			p.readErr = o.readErr
		}
		r.log.add(append(o.last, o.failedRecs...))
	}
	return p
}
