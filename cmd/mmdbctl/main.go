// Command mmdbctl inspects and verifies an mmdb database directory
// offline (the database must not be open). It is a thin CLI over
// internal/inspect.
//
// Subcommands:
//
//	mmdbctl info   -dir DIR
//	    Print backup checkpoint metadata and a log summary.
//	mmdbctl verify -dir DIR
//	    Checksum-verify both backup copies and validate the log chain.
//	mmdbctl log    -dir DIR [-from LSN] [-limit N]
//	    Dump log records in order.
//	mmdbctl dryrun -dir DIR -records N -recbytes B [-segbytes S]
//	    Run recovery against a scratch copy of the directory and report
//	    what it would do.
//	mmdbctl archive -dir DIR -out FILE
//	    Dump the latest complete checkpoint plus the needed log suffix to
//	    a self-contained archive file.
//	mmdbctl restore -in FILE -dir NEWDIR
//	    Materialize an archive as a recoverable database directory.
//	mmdbctl stats -addr URL [-watch] [-interval D] [-format prom|json]
//	    Fetch and print live metrics from a running process serving
//	    DB.Metrics().
//	mmdbctl trace -addr URL [-o FILE]
//	    Fetch the span ring (the flight recorder) from a running process
//	    as Chrome trace-event JSON, ready to load in chrome://tracing or
//	    Perfetto ("-o -" writes to stdout).
//
// stats and trace talk to a live process over HTTP; every other
// subcommand works offline on a database directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"mmdb"
	"mmdb/internal/inspect"
	"mmdb/internal/storage"
	"mmdb/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	dir := fs.String("dir", "", "database directory (required)")
	records := fs.Int("records", 0, "number of records (required for dryrun)")
	recBytes := fs.Int("recbytes", 0, "record size in bytes (required for dryrun)")
	segBytes := fs.Int("segbytes", 0, "segment size in bytes (0 = 256 records)")
	from := fs.Uint64("from", 0, "log: first LSN to dump")
	limit := fs.Int("limit", 50, "log: maximum records to dump (0 = all)")
	outFile := fs.String("out", "", "archive: output file")
	inFile := fs.String("in", "", "restore: input archive file")
	addr := fs.String("addr", "", "stats: metrics URL of a running process (e.g. http://localhost:6060/metrics)")
	watch := fs.Bool("watch", false, "stats: refresh continuously")
	interval := fs.Duration("interval", 2*time.Second, "stats: refresh interval with -watch")
	format := fs.String("format", "prom", "stats: output format, prom or json")
	traceOut := fs.String("o", "trace.json", `trace: output file ("-" = stdout)`)
	_ = fs.Parse(os.Args[2:])
	if cmd == "stats" || cmd == "trace" {
		// stats and trace talk to a live process over HTTP, not to a
		// directory.
		var err error
		switch cmd {
		case "stats":
			err = stats(os.Stdout, *addr, *format, *watch, *interval)
		case "trace":
			err = trace(os.Stdout, *addr, *traceOut)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmdbctl %s: %v\n", cmd, err)
			os.Exit(1)
		}
		return
	}
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "mmdbctl: -dir is required")
		os.Exit(2)
	}

	var err error
	switch cmd {
	case "archive":
		err = archive(*dir, *outFile)
	case "restore":
		err = restore(*inFile, *dir)
	case "info":
		err = info(*dir)
	case "verify":
		err = verify(*dir)
	case "log":
		err = dumpLog(*dir, wal.LSN(*from), *limit)
	case "dryrun":
		err = dryrun(*dir, *records, *recBytes, *segBytes)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmdbctl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mmdbctl {info|verify|log|dryrun|archive|restore} -dir DIR [flags]")
	fmt.Fprintln(os.Stderr, "       mmdbctl stats -addr URL [-watch] [-interval D] [-format prom|json]")
	fmt.Fprintln(os.Stderr, "       mmdbctl trace -addr URL [-o FILE]")
	os.Exit(2)
}

// fetchURL GETs url and copies the body to w.
func fetchURL(w io.Writer, url string) error {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s: %s", url, resp.Status, body)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// stats fetches the metrics endpoint once, or repeatedly with -watch
// (clearing the screen between refreshes, like watch(1)). Single
// fetches write to w; watch mode writes to stdout.
func stats(w io.Writer, addr, format string, watch bool, interval time.Duration) error {
	if addr == "" {
		return fmt.Errorf("stats needs -addr (a URL serving DB.Metrics())")
	}
	if format != "prom" && format != "json" {
		return fmt.Errorf("unknown -format %q (want prom or json)", format)
	}
	url := addr + "?format=" + format
	if !watch {
		return fetchURL(w, url)
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	for {
		// ANSI clear screen + home, as watch(1) does.
		fmt.Print("\x1b[2J\x1b[H")
		fmt.Printf("mmdbctl stats %s — every %v (^C to stop)\n\n", addr, interval)
		if err := fetchURL(os.Stdout, url); err != nil {
			fmt.Fprintf(os.Stderr, "fetch: %v\n", err)
		}
		time.Sleep(interval)
	}
}

// trace fetches the span ring as Chrome trace-event JSON and writes it
// to out ("-" or empty means stdout, i.e. w).
func trace(w io.Writer, addr, out string) error {
	if addr == "" {
		return fmt.Errorf("trace needs -addr (a URL serving DB.Metrics())")
	}
	url := addr + "?format=chrome"
	if out == "" || out == "-" {
		return fetchURL(w, url)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	ferr := fetchURL(f, url)
	if cerr := f.Close(); ferr == nil {
		ferr = cerr
	}
	if ferr != nil {
		return ferr
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %d bytes of Chrome trace JSON to %s (open in chrome://tracing or https://ui.perfetto.dev)\n",
		fi.Size(), out)
	return nil
}

func archive(dir, out string) error {
	if out == "" {
		return fmt.Errorf("archive needs -out")
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	segs, logBytes, err := inspect.Archive(dir, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("archived %d segments and %.1f MB of log to %s (%.1f MB total)\n",
		segs, float64(logBytes)/1e6, out, float64(fi.Size())/1e6)
	return nil
}

func restore(in, dir string) error {
	if in == "" {
		return fmt.Errorf("restore needs -in")
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := inspect.RestoreArchive(f, dir)
	if err != nil {
		return err
	}
	fmt.Printf("restored checkpoint %d (%s): %d segments, %.1f MB of log into %s\n",
		info.Checkpoint.ID, info.Checkpoint.Algorithm, info.Segments,
		float64(info.LogBytes)/1e6, dir)
	fmt.Println("recover it by opening the directory with mmdb.Recover / OpenOrRecover")
	return nil
}

func info(dir string) error {
	di, err := inspect.Info(dir)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "backup geometry:\t%d segments × %d bytes (%.1f MB per copy)\n",
		di.Geometry.NumSegments, di.Geometry.SegmentBytes,
		float64(di.Geometry.NumSegments)*float64(di.Geometry.SegmentBytes)/1e6)
	for c, ci := range di.Copies {
		if ci.ID == 0 {
			fmt.Fprintf(w, "copy %d:\tnever checkpointed\n", c)
			continue
		}
		state := "COMPLETE"
		if !ci.Complete {
			state = "incomplete (in progress or crashed)"
		}
		kind := "partial"
		if ci.Full {
			kind = "full"
		}
		fmt.Fprintf(w, "copy %d:\tcheckpoint %d (%s, %s)\t%s\n", c, ci.ID, ci.Algorithm, kind, state)
		fmt.Fprintf(w, "\tbegin LSN %d, scan start %d, end LSN %d, timestamp %d\n",
			ci.BeginLSN, ci.ScanStartLSN, ci.EndLSN, ci.Timestamp)
		fmt.Fprintf(w, "\t%d segments written, %.1f MB\n", ci.SegmentsWritten, float64(ci.BytesWritten)/1e6)
	}
	if di.HasRecoverySource {
		fmt.Fprintf(w, "recovery would use:\tcopy %d (checkpoint %d), redo scan from LSN %d\n",
			di.RecoveryCopy, di.RecoveryCheckpoint.ID, di.RecoveryCheckpoint.ScanStartLSN)
	} else {
		fmt.Fprintf(w, "recovery would use:\tno complete checkpoint — full log replay\n")
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if di.Log == nil {
		fmt.Println("log: missing")
		return nil
	}
	fmt.Printf("log: base LSN %d, valid end %d (%.1f MB live)\n",
		di.Log.Base, di.Log.ValidEnd, float64(di.Log.ValidEnd.Sub(di.Log.Base))/1e6)
	if di.Log.TornBytes > 0 {
		fmt.Printf("log: %d torn trailing bytes (discarded by recovery)\n", di.Log.TornBytes)
	}
	for _, ty := range []wal.RecordType{wal.TypeUpdate, wal.TypeLogicalUpdate, wal.TypeCommit,
		wal.TypeAbort, wal.TypeBeginCheckpoint, wal.TypeEndCheckpoint} {
		if n := di.Log.Counts[ty]; n > 0 {
			fmt.Printf("  %-18s %d\n", ty.String(), n)
		}
	}
	return nil
}

func verify(dir string) error {
	res, err := inspect.Verify(dir)
	if err != nil {
		return err
	}
	for c, n := range res.CopySegments {
		fmt.Printf("copy %d: %d written segments, all checksums valid\n", c, n)
	}
	total := 0
	for _, n := range res.Log.Counts {
		total += n
	}
	fmt.Printf("log: %d valid records up to LSN %d\n", total, res.Log.ValidEnd)
	if res.Log.TornBytes > 0 {
		fmt.Printf("log: %d trailing bytes are torn (will be discarded by recovery)\n", res.Log.TornBytes)
	}
	return nil
}

func dumpLog(dir string, from wal.LSN, limit int) error {
	n, err := inspect.IterateLog(dir, from, limit, func(e wal.Entry) error {
		rec := e.Rec
		switch rec.Type {
		case wal.TypeUpdate:
			fmt.Printf("%10d  update          txn=%d rec=%d len=%d\n", e.LSN, rec.TxnID, rec.RecordID, len(rec.Data))
		case wal.TypeLogicalUpdate:
			fmt.Printf("%10d  logical-update  txn=%d rec=%d op=%d len=%d\n", e.LSN, rec.TxnID, rec.RecordID, rec.OpCode, len(rec.Data))
		case wal.TypeCommit:
			fmt.Printf("%10d  commit          txn=%d\n", e.LSN, rec.TxnID)
		case wal.TypeAbort:
			fmt.Printf("%10d  abort           txn=%d\n", e.LSN, rec.TxnID)
		case wal.TypeBeginCheckpoint:
			fmt.Printf("%10d  begin-ckpt      id=%d ts=%d copy=%d active=%d\n", e.LSN, rec.CheckpointID, rec.Timestamp, rec.TargetCopy, len(rec.ActiveTxns))
		case wal.TypeEndCheckpoint:
			fmt.Printf("%10d  end-ckpt        id=%d copy=%d\n", e.LSN, rec.CheckpointID, rec.TargetCopy)
		default:
			fmt.Printf("%10d  %v\n", e.LSN, rec.Type)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("(%d records shown)\n", n)
	return nil
}

func dryrun(dir string, records, recBytes, segBytes int) error {
	if records <= 0 || recBytes <= 0 {
		return fmt.Errorf("dryrun needs -records and -recbytes")
	}
	if segBytes == 0 {
		segBytes = recBytes * mmdb.DefaultRecordsPerSegment
	}
	cfg := storage.Config{NumRecords: records, RecordBytes: recBytes, SegmentBytes: segBytes}
	rep, err := inspect.DryRun(dir, cfg, nil)
	if err != nil {
		return err
	}
	fmt.Printf("recovery would succeed:\n")
	fmt.Printf("  checkpoint used:   %d (copy %d, %s)\n", rep.CheckpointID, rep.UsedCopy, rep.CheckpointAlgorithm)
	fmt.Printf("  segments loaded:   %d (%.1f MB)\n", rep.SegmentsLoaded, float64(rep.BackupBytesRead)/1e6)
	fmt.Printf("  log scanned:       %d records from LSN %d to %d (%.1f MB)\n",
		rep.RecordsScanned, rep.ScanStartLSN, rep.LogEndLSN, float64(rep.LogBytesRead)/1e6)
	fmt.Printf("  txns replayed:     %d (%d updates applied, %d logical, %d discarded)\n",
		rep.TxnsReplayed, rep.UpdatesApplied, rep.LogicalReplayed, rep.UpdatesDiscarded)
	fmt.Printf("  elapsed:           %v\n", rep.Elapsed)
	return nil
}
