// Command mmdbsim runs the discrete-event checkpointing simulator (the
// "testbed" of the paper's Section 5 future work) at one operating point
// and prints its measurements next to the analytic model's predictions.
//
// Example:
//
//	mmdbsim -alg 2CCOPY -lambda 500 -interval 200 -retry correlated
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mmdb/analytic"
	"mmdb/sim"
)

var (
	algName     = flag.String("alg", "COUCOPY", "checkpoint algorithm ("+algNames()+")")
	lambda      = flag.Float64("lambda", 0, "transaction arrival rate (0 = paper default)")
	nru         = flag.Float64("nru", 0, "updates per transaction (0 = paper default)")
	sseg        = flag.Float64("sseg", 0, "segment size in words (0 = paper default)")
	sdb         = flag.Float64("sdb", 0, "database size in words (0 = paper default)")
	ndisks      = flag.Float64("disks", 0, "backup disks (0 = paper default)")
	interval    = flag.Float64("interval", 0, "checkpoint interval in seconds (0 = as fast as possible)")
	full        = flag.Bool("full", false, "full (not partial) checkpoints")
	stable      = flag.Bool("stable", false, "stable log tail")
	retry       = flag.String("retry", "independent", "two-color retry model: independent or correlated")
	seed        = flag.Int64("seed", 1, "random seed")
	checkpoints = flag.Int("checkpoints", 5, "measured checkpoint intervals")
	warmup      = flag.Int("warmup", 2, "warm-up checkpoint intervals")
	skew        = flag.Float64("skew", 0, "Zipf skew over segments (>1; 0 = uniform, the paper's model)")
	logical     = flag.Bool("logical", false, "logical (operation) logging — requires a COU algorithm")
)

// algNames lists every algorithm's paper name for the -alg help.
func algNames() string {
	names := make([]string, len(analytic.Algorithms))
	for i, a := range analytic.Algorithms {
		names[i] = a.String()
	}
	return strings.Join(names, ", ")
}

func main() {
	flag.Parse()
	alg, err := analytic.Parse(*algName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := analytic.DefaultParams()
	if *lambda > 0 {
		p.Lambda = *lambda
	}
	if *nru > 0 {
		p.NRU = *nru
	}
	if *sseg > 0 {
		p.SSeg = *sseg
	}
	if *sdb > 0 {
		p.SDB = *sdb
	}
	if *ndisks > 0 {
		p.NDisks = *ndisks
	}
	o := analytic.Options{
		Algorithm:       alg,
		Full:            *full,
		StableTail:      *stable || alg.RequiresStableTail(),
		IntervalSeconds: *interval,
		LogicalLogging:  *logical,
	}
	switch *retry {
	case "independent":
		o.Retry = analytic.IndependentRetries
	case "correlated":
		o.Retry = analytic.CorrelatedRetries
	default:
		fmt.Fprintf(os.Stderr, "mmdbsim: unknown retry model %q\n", *retry)
		os.Exit(2)
	}

	simRes, err := sim.Run(sim.Config{
		Params: p, Options: o, Seed: *seed,
		Checkpoints: *checkpoints, Warmup: *warmup,
		Skew: *skew,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmdbsim:", err)
		os.Exit(1)
	}
	anaRes, err := analytic.Evaluate(p, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmdbsim:", err)
		os.Exit(1)
	}

	fmt.Printf("algorithm: %v  (full=%v stable=%v interval=%vs retry=%s)\n",
		alg, o.Full, o.StableTail, o.IntervalSeconds, *retry)
	fmt.Printf("load: lambda=%.0f txn/s, N_ru=%.0f, S_seg=%.0f words, N_seg=%.0f, disks=%.0f\n\n",
		p.Lambda, p.NRU, p.SSeg, p.NumSegments(), p.NDisks)
	row := func(name, simVal, anaVal string) { fmt.Printf("%-28s %14s %14s\n", name, simVal, anaVal) }
	row("", "simulator", "model")
	row("checkpoint duration (s)", f1(simRes.MeanDurationSeconds), f1(anaRes.DurationSeconds))
	row("checkpointer active (s)", f1(simRes.MeanActiveSeconds), f1(anaRes.ActiveSeconds))
	row("duty cycle", f3(simRes.DutyCycle), f3(anaRes.DutyCycle))
	row("segments per checkpoint", f0(simRes.SegmentsPerCheckpoint), f0(anaRes.SegmentsPerCheckpoint))
	row("overhead (instr/txn)", f0(simRes.OverheadPerTxn), f0(anaRes.OverheadPerTxn))
	row("  synchronous", f0(simRes.SyncOverheadPerTxn), f0(anaRes.SyncOverheadPerTxn))
	row("  asynchronous", f0(simRes.AsyncOverheadPerTxn), f0(anaRes.AsyncOverheadPerTxn))
	row("p_restart", f3(simRes.PRestart), f3(anaRes.PRestart))
	row("COU copies per checkpoint", f0(simRes.COUCopiesPerCkpt), f0(anaRes.COUCopiesPerCkpt))
	row("log rate (words/s)", f0(simRes.LogWordsPerSecond), f0(anaRes.LogWordsPerSecond))
	row("recovery time (s)", f1(simRes.RecoverySeconds), f1(anaRes.RecoverySeconds))
	row("  backup read (s)", f1(simRes.BackupReadSeconds), f1(anaRes.BackupReadSeconds))
	row("  log read (s)", f1(simRes.LogReadSeconds), f1(anaRes.LogReadSeconds))
	fmt.Printf("\nsimulated: %d committed transactions, %d attempts, %d color aborts over %d checkpoints\n",
		simRes.TxnsCommitted, simRes.TxnAttempts, simRes.ColorAborts, *checkpoints)
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
