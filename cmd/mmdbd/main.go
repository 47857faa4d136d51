// Command mmdbd serves a sharded mmdb key-value store over TCP using
// the netproto frame protocol (see internal/netproto for the wire
// format and mmdb/client for the Go client).
//
//	mmdbd -dir DIR [-records N] [-recbytes B] [-segbytes S]
//	      [-alg COUCOPY] [-shards N] [-addr host:port] [-sync]
//	      [-interval D] [-metrics host:port]
//
// Each shard is an independent engine under DIR/shard-NNN with its own
// WAL, backup pair, and checkpoint loop; checkpoint schedules are
// staggered across shards so backups stream one after another instead
// of bursting together. On startup mmdbd recovers whatever the
// directory holds and prints one line per recovered shard, then
//
//	mmdbd: listening on 127.0.0.1:7070 (4 shards)
//
// once it accepts connections — tooling watches stdout for that line.
// SIGINT/SIGTERM drain connections, stop the checkpoint loops, close
// every shard cleanly, and exit 0.
//
// With -metrics, an HTTP endpoint serves observability:
//
//	/metrics        router registry (per-shard routed ops, mmdb_shard_*)
//	/shard/N/       shard N's full engine registry + flight recorder
//	                (?format=json|chrome, &spans=1, ...)
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmdb"
	"mmdb/internal/obs"
	"mmdb/internal/server"
	"mmdb/internal/shard"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "listen address")
		dir         = flag.String("dir", "", "database directory (required)")
		records     = flag.Int("records", 65536, "records per shard's primary")
		recBytes    = flag.Int("recbytes", 256, "record size in bytes")
		segBytes    = flag.Int("segbytes", 0, "checkpoint segment bytes (0 = 256 records)")
		algName     = flag.String("alg", "COUCOPY", "checkpoint algorithm")
		shards      = flag.Int("shards", 4, "number of shards (1 = plain unsharded layout)")
		syncCommit  = flag.Bool("sync", true, "fsync the log on every commit")
		interval    = flag.Duration("interval", 10*time.Second, "checkpoint interval (0 disables the loops)")
		metricsAddr = flag.String("metrics", "", "serve metrics over HTTP on this address (empty = off)")
	)
	flag.Parse()
	if err := run(*addr, *dir, *records, *recBytes, *segBytes, *algName,
		*shards, *syncCommit, *interval, *metricsAddr); err != nil {
		fmt.Fprintf(os.Stderr, "mmdbd: %v\n", err)
		os.Exit(1)
	}
}

// ctxcheck:root(main is the process root; shutdown is signal-driven)
func run(addr, dir string, records, recBytes, segBytes int, algName string,
	shards int, syncCommit bool, interval time.Duration, metricsAddr string) error {
	if dir == "" {
		return fmt.Errorf("-dir is required")
	}
	alg, err := mmdb.ParseAlgorithm(algName)
	if err != nil {
		return err
	}
	if shards > 1 && records%shards != 0 {
		return fmt.Errorf("-records %d must divide evenly by -shards %d", records, shards)
	}
	cfg := mmdb.Config{
		Dir:                dir,
		NumRecords:         records,
		RecordBytes:        recBytes,
		SegmentBytes:       segBytes, // 0 keeps the config default
		Algorithm:          alg,
		SyncCommit:         syncCommit,
		Shards:             shards,
		AutoCheckpoint:     interval > 0,
		CheckpointInterval: interval,
	}

	router, reports, err := shard.Open(context.Background(), cfg)
	if err != nil {
		return err
	}
	defer router.Close() //nolint:errcheckwal // the signal path below closes first; this covers error exits
	for i, rep := range reports {
		if rep != nil {
			fmt.Printf("mmdbd: shard %d recovered: %d log records scanned, checkpoint used: %v\n",
				i, rep.RecordsScanned, rep.UsedCheckpoint)
		}
	}

	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(router.Registry(), nil, nil))
		for i := 0; i < router.NumShards(); i++ {
			mux.Handle(fmt.Sprintf("/shard/%d/", i), router.Shard(i).DB().Metrics())
		}
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("mmdbd: metrics on %s\n", mln.Addr())
		// goleak:joins process exit; the metrics server lives for the process
		go http.Serve(mln, mux) //nolint:errcheck // best-effort sidecar endpoint
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := server.New(router)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	// goleak:joins the <-serveErr receive below
	go func() { serveErr <- srv.Serve(ln) }()

	fmt.Printf("mmdbd: listening on %s (%d shards)\n", ln.Addr(), router.NumShards())

	select {
	case sig := <-sigc:
		fmt.Printf("mmdbd: %v — shutting down\n", sig)
		srv.Shutdown()
		<-serveErr
		if err := router.Close(); err != nil {
			return fmt.Errorf("closing shards: %w", err)
		}
		fmt.Println("mmdbd: clean shutdown")
		return nil
	case err := <-serveErr:
		return err
	}
}
