// Command benchmark is the repository's end-to-end benchmark. It runs
// one named workload against the public store API (client → server →
// shard router → kvstore → engine → WAL and backup), checks that every
// acknowledged write reads back with its last value and survives a
// crash, and prints the metrics BENCHMARK.json names. From the
// repository root:
//
//	bash benchmark/run.sh --workload shipped-write --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn. The last line of standard
// output is one JSON object with the keys correct, attempted, failed
// and metrics. With --trace 0 the metrics are the end-to-end ones; with
// --trace 1 the run measures an untraced and a traced half window on
// the same stack and reports the per-layer metrics of the traced half,
// the tracing overhead, and writes a Chrome trace. Full records (host,
// parameters, op accounting) go to .bench_build/results/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated op streams")
		seconds = flag.Float64("seconds", 20, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		out     = flag.String("out", ".bench_build", "directory for databases, records and traces")
	)
	flag.Parse()
	code, err := mainErr(*name, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	}
	os.Exit(code)
}

func mainErr(name string, seed int64, seconds float64, trace bool, out string) (int, error) {
	if seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	var ws []workload
	if name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(name)
		if err != nil {
			return 2, err
		}
		ws = []workload{w}
	}
	final := summary{Correct: true, Metrics: map[string]value{}}
	for _, w := range ws {
		res, err := runBenchmark(context.Background(), options{w: w, seed: seed,
			window: time.Duration(seconds * float64(time.Second)), trace: trace, dir: out})
		if res != nil {
			printResult(res)
			if werr := res.save(out); werr != nil && err == nil {
				err = werr
			}
			final.Attempted += res.Attempted
			final.Failed += res.Failed
			for _, m := range res.Metrics {
				if !m.Listed {
					continue
				}
				key := m.Name
				if len(ws) > 1 {
					key = w.name + "." + m.Name
				}
				final.Metrics[key] = value{Value: m.Value, Unit: m.Unit}
			}
		}
		if err != nil {
			// A run that stopped early checked nothing it can vouch for.
			final.Correct = false
			final.Metrics = map[string]value{}
			if final.Attempted == 0 {
				final.Attempted = 1 // the summary format requires attempted >= 1
			}
			printSummary(final)
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	printSummary(final)
	return 0, nil
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printSummary(s summary) {
	b, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

func printResult(r *result) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("== %s  seed %d  %.0fs  %s\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Printf("   host: nproc %d, GOMAXPROCS %d, %s, kernel %s, commit %s, steal %.1f%%, busy %.1f%%\n",
		r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.Kernel, r.Host.Commit,
		100*r.Host.StealFrac, 100*r.Host.BusyFrac)
	fmt.Printf("   requests: %d attempted, %d acknowledged, %d failed (error_frac %.4g); %d user ops\n",
		r.Attempted, r.Acked, r.Failed, r.ErrorFrac, r.Ops)
	for _, m := range r.Metrics {
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		mark := " "
		if !m.Listed {
			mark = "~" // not in BENCHMARK.json
		}
		fmt.Printf("  %s%-32s %14.6g %-6s%s\n", mark, m.Name, m.Value, m.Unit, n)
	}
	for _, note := range r.Notes {
		fmt.Printf("   note: %s\n", note)
	}
}

// save writes the full record as JSON under dir/results.
func (r *result) save(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	mode := "e2e"
	if r.Trace {
		mode = "trace"
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, mode)
	return os.WriteFile(filepath.Join(dir, "results", name), b, 0o644)
}
