package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"mmdb"
	"mmdb/internal/shard"
)

// The stack shape every workload shares: mmdbd's defaults (cmd/mmdbd).
const (
	numRecords = 65536 // records across all shards
	recBytes   = 256
	numShards  = 4
	batchOps   = 5 // the paper's N_ru: updates per transaction

	// numKeys is the live keyspace: half the capacity, preloaded at
	// set-up, so every key a workload touches exists and no insert can
	// run out of slots.
	numKeys = numRecords / 2

	keyBytes = 16
	// valBytes fills a record exactly: kvstore's 5-byte header, the key
	// and the value make 256 bytes.
	valBytes = recBytes - 5 - keyBytes

	// zipfS is the read/write skew of shipped-read (math/rand's Zipf
	// needs s > 1; 1.1 puts ~9% of draws on the hottest key).
	zipfS = 1.1

	// ringOps is the length of each closed-loop caller's pre-generated
	// op ring; callers cycle through it, so generation stays out of the
	// timed path however fast the stack runs.
	ringOps = 1 << 15

	// tailBatches is the fixed log tail every run writes between its
	// last checkpoint and the crash; each batch stays on one shard so
	// recovery replays exactly tailBatches transactions.
	tailBatches = 4000

	// setupReps and recoveryReps are how many times a run sets up the
	// stack and times recovery; each reports the median.
	setupReps    = 15
	recoveryReps = 11
)

// workload is one named traffic mix. Its parameters are recorded in
// BENCHMARK.json (the why-lines) and benchmark/reasoning.json.
type workload struct {
	name string
	// wire drives the stack through client → loopback TCP → server; off,
	// the callers invoke the shard router in process.
	wire bool
	// conns is the number of client connections (wire only).
	conns int
	// interval is the per-shard checkpoint interval; 0 is back-to-back.
	interval time.Duration
	// open selects the open loop: Poisson arrivals of batches at rate
	// batches per second, split evenly over the connections.
	open bool
	rate float64
	// callers is the closed-loop caller count (shared over conns when
	// wire); readFrac is the share of single-key Gets. With readFrac > 0
	// the rest are single Puts and keys are Zipf-skewed; otherwise every
	// request is a 5-put batch of uniform keys.
	callers  int
	readFrac float64
}

var workloads = []workload{
	{name: "shipped-write", wire: true, conns: 2, interval: 10 * time.Second,
		open: true, rate: shippedWriteRate},
	{name: "shipped-read", wire: true, conns: 2, interval: 10 * time.Second,
		callers: 16, readFrac: 0.9},
	{name: "stress-ckpt", interval: 0, callers: 2},
}

// shippedWriteRate is the open-loop arrival rate of 5-put batches, about
// half the closed-loop batch capacity of the shipped stack measured on a
// 2-core host (see benchmark/reasoning.json).
const shippedWriteRate = 8000

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the database every run of w opens under dir.
func (w workload) config(dir string) mmdb.Config {
	return mmdb.Config{
		Dir:                dir,
		NumRecords:         numRecords,
		RecordBytes:        recBytes,
		Algorithm:          mmdb.COUCopy,
		SyncCommit:         true,
		Shards:             numShards,
		AutoCheckpoint:     true,
		CheckpointInterval: w.interval,
	}
}

// generators is the number of key owners: each owns the keys k with
// k % generators == g, so concurrent owners never write the same key.
func (w workload) generators() int {
	if w.open {
		return w.conns
	}
	return w.callers
}

// keyspace holds every key, its shard, and the keys of each shard.
type keyspace struct {
	keys    [][]byte
	shardOf []uint8
	byShard [][]uint32
}

func newKeyspace() *keyspace {
	ks := &keyspace{keys: make([][]byte, numKeys), shardOf: make([]uint8, numKeys), byShard: make([][]uint32, numShards)}
	for k := range ks.keys {
		ks.keys[k] = []byte(fmt.Sprintf("k%015d", k))
		s := shard.Index(ks.keys[k], numShards)
		ks.shardOf[k] = uint8(s)
		ks.byShard[s] = append(ks.byShard[s], uint32(k))
	}
	return ks
}

// Values carry the ID of the request that wrote them and the key they
// belong to, so the read-back check can tell which write it sees and a
// traced server-side span can be linked to its client span:
//
//	[0:8] request ID  [8:12] key  [12:16] check word  [16:] fixed filler
const valHdr = 16

func checkWord(id uint64, key uint32) uint32 {
	return uint32(id*0x9E3779B97F4A7C15>>32) ^ key ^ 0xA5A5A5A5
}

// putValue writes the value of request id for key into dst (valBytes).
func putValue(dst []byte, id uint64, key uint32) {
	binary.LittleEndian.PutUint64(dst[0:], id)
	binary.LittleEndian.PutUint32(dst[8:], key)
	binary.LittleEndian.PutUint32(dst[12:], checkWord(id, key))
}

// newValueBuf returns a value buffer with the filler in place.
func newValueBuf() []byte {
	b := make([]byte, valBytes)
	for i := valHdr; i < valBytes; i++ {
		b[i] = byte(i)
	}
	return b
}

// parseValue returns the request ID a stored value carries, or an error
// if the value is not one this benchmark wrote for key.
func parseValue(v []byte, key uint32) (uint64, error) {
	if len(v) != valBytes {
		return 0, fmt.Errorf("key %d: value has %d bytes, want %d", key, len(v), valBytes)
	}
	id := binary.LittleEndian.Uint64(v)
	if k := binary.LittleEndian.Uint32(v[8:]); k != key {
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, k)
	}
	if binary.LittleEndian.Uint32(v[12:]) != checkWord(id, key) {
		return 0, fmt.Errorf("key %d: value header is corrupt", key)
	}
	for i := valHdr; i < valBytes; i++ {
		if v[i] != byte(i) {
			return 0, fmt.Errorf("key %d: value filler is corrupt at byte %d", key, i)
		}
	}
	return id, nil
}

// Request IDs: the owner in the top bits, a per-owner sequence below.
// Owner 0 is the preload; owner generators+1 is the crash tail.
func requestID(owner int, seq uint64) uint64 { return uint64(owner)<<40 | seq }

// arrival is one scheduled batch of the open loop.
type arrival struct {
	due  time.Duration // offset from the window start
	keys [batchOps]uint32
}

// opRing is one closed-loop caller's pre-generated ops: a key index,
// with readBit set for a Get. Batches take batchOps consecutive keys.
type opRing []uint32

const readBit = 1 << 31

// ownedKeys draws n distinct keys owned by generator g of gens,
// uniformly.
func ownedKeys(rng *rand.Rand, g, gens int, dst []uint32) {
	per := numKeys / gens
	for i := range dst {
	retry:
		k := uint32(rng.Intn(per)*gens + g)
		for _, prev := range dst[:i] {
			if prev == k {
				goto retry
			}
		}
		dst[i] = k
	}
}

// schedule pre-generates generator g's open-loop arrivals over window:
// a Poisson process at rate/gens batches per second.
func (w workload) schedule(seed int64, phase, g int, window time.Duration) []arrival {
	gens := w.generators()
	rng := rand.New(rand.NewSource(seed*1000003 + int64(phase)*7919 + int64(g)))
	mean := float64(time.Second) * float64(gens) / w.rate
	var out []arrival
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() * mean)
		if t >= window {
			return out
		}
		a := arrival{due: t}
		ownedKeys(rng, g, gens, a.keys[:])
		out = append(out, a)
	}
}

// ring pre-generates closed-loop caller g's op ring.
func (w workload) ring(seed int64, g int) opRing {
	gens := w.generators()
	rng := rand.New(rand.NewSource(seed*1000003 + int64(g)))
	ring := make(opRing, 0, ringOps)
	if w.readFrac == 0 {
		var b [batchOps]uint32
		for len(ring)+batchOps <= ringOps {
			ownedKeys(rng, g, gens, b[:])
			ring = append(ring, b[:]...)
		}
		return ring
	}
	all := rand.NewZipf(rng, zipfS, 1, numKeys-1)
	own := rand.NewZipf(rng, zipfS, 1, uint64(numKeys/gens-1))
	for len(ring) < ringOps {
		if rng.Float64() < w.readFrac {
			ring = append(ring, uint32(all.Uint64())|readBit)
		} else {
			ring = append(ring, uint32(own.Uint64())*uint32(gens)+uint32(g))
		}
	}
	return ring
}

// tail pre-generates the crash tail: tailBatches batches, batch i
// confined to shard i%numShards.
func tail(ks *keyspace, seed int64) [][batchOps]uint32 {
	rng := rand.New(rand.NewSource(seed*1000003 - 1))
	out := make([][batchOps]uint32, tailBatches)
	for i := range out {
		keys := ks.byShard[i%numShards]
		for j := range out[i] {
		retry:
			k := keys[rng.Intn(len(keys))]
			for _, prev := range out[i][:j] {
				if prev == k {
					goto retry
				}
			}
			out[i][j] = k
		}
	}
	return out
}
