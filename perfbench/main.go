// Command perfbench is the repository's end-to-end benchmark. It builds the
// real stack in-process through the public constructors (shard.New,
// durable.Open, server.New on a loopback listener, wire.Client, and
// proof.Proof.Verify on the client side), drives one seeded closed-loop
// workload against it, checks every reply against a shadow model, restarts
// the store and checks every acknowledged write again, and ends with a
// tamper probe.
//
//	go run . --workload serve_read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the workload untraced and then traced (half the
// time each) and reports the per-layer metrics. The exit code is non-zero
// when any correctness check fails. BENCHMARK.json at the repository root
// documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve_read, engine_write or durable_write")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for data directories and saved state")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, workdir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	workdir = filepath.Join(workdir, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)
	dur := time.Duration(seconds * float64(time.Second))

	prov, err := json.Marshal(map[string]any{"provenance": provenance(w, seed, trace)})
	if err != nil {
		return err
	}
	fmt.Println(string(prov))

	out := output{Metrics: map[string]metric{}}
	var runs []*result
	if trace == 0 {
		r, err := runOnce(w, seed, dur, 0, false, workdir)
		if err != nil {
			return err
		}
		runs = append(runs, r)
		for _, e := range endToEnd(r) {
			out.Metrics[e.name] = metric{e.value, e.unit}
		}
	} else {
		plain, err := runOnce(w, seed, dur/2, 0, false, workdir)
		if err != nil {
			return err
		}
		traced, err := runOnce(w, seed, dur/2, 0, true, workdir)
		if err != nil {
			return err
		}
		runs = append(runs, plain, traced)
		if traced.layers != nil {
			traced.layers["trace.overhead_frac"] = 1 - opsPerSec(traced)/opsPerSec(plain)
		}
		for _, l := range layerNames {
			out.Metrics[l.name] = metric{traced.layers[l.name], l.unit}
		}
	}
	for _, r := range runs {
		out.Attempted += r.attempted
		out.Failed += r.failed
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return fmt.Errorf("%d of %d checks failed", out.Failed, out.Attempted)
	}
	return nil
}

func opsPerSec(r *result) float64 { return float64(r.ops) / r.elapsed.Seconds() }

// windowed returns the interquartile mean over time slices of f (the mean
// of the middle half of the values), skipping slices f has no samples for
// (f returns a negative value). The first slice is not reported; it is
// a margin after the warm-up. A tail quantile's slice values are skewed by bursts of
// interference from outside the process; the interquartile mean drops
// those slices, like a median, but varies less from run to run.
func windowed(r *result, f func(w *window) float64) float64 {
	if r.winDur == 0 {
		return f(&r.total)
	}
	var vals []float64
	for i := 1; i < len(r.wins); i++ {
		if v := f(&r.wins[i]); v >= 0 {
			vals = append(vals, v)
		}
	}
	return iqm(vals)
}

// iqm returns the interquartile mean of vals (0 if empty), sorting them.
func iqm(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	q := len(vals) / 4
	var sum float64
	for _, v := range vals[q : len(vals)-q] {
		sum += v
	}
	return sum / float64(len(vals)-2*q)
}

func quantileUS(h func(w *window) *hist, q float64) func(w *window) float64 {
	return func(w *window) float64 {
		if h(w).n == 0 {
			return -1
		}
		return h(w).us(q)
	}
}

type e2e struct {
	name, unit string
	value      float64
}

// endToEnd lists the metrics a user of the system sees.
func endToEnd(r *result) []e2e {
	ops := opsPerSec(r)
	if r.winDur > 0 {
		ops = windowed(r, func(w *window) float64 { return float64(w.ops) / r.winDur.Seconds() })
	}
	return []e2e{
		{"ops_per_s", "1/s", ops},
		{"read_p50_us", "us", windowed(r, quantileUS(read, 0.5))},
		{"read_p99_us", "us", windowed(r, quantileUS(read, 0.99))},
		{"write_p50_us", "us", windowed(r, quantileUS(write, 0.5))},
		{"write_p99_us", "us", windowed(r, quantileUS(write, 0.99))},
		{"proof_read_p50_us", "us", windowed(r, quantileUS(proofRead, 0.5))},
		{"proof_read_p90_us", "us", windowed(r, quantileUS(proofRead, 0.9))},
		{"recover_s", "s", iqmSeconds(r.recover)},
		{"setup_s", "s", median(r.setups).Seconds()},
		{"heap_mb", "MB", r.heap / 1e6},
		{"stored_bytes_per_user_byte", "ratio", r.stored},
	}
}

func read(w *window) *hist      { return &w.read }
func write(w *window) *hist     { return &w.write }
func proofRead(w *window) *hist { return &w.proof }

// iqmSeconds returns the interquartile mean of ds in seconds.
func iqmSeconds(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = d.Seconds()
	}
	return iqm(vals)
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance records what produced a result.
func provenance(w *workload, seed uint64, trace int) map[string]any {
	rev, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"git_sha":      rev,
		"git_modified": modified,
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"workload":     w.name,
		"seed":         seed,
		"trace":        trace,
		"callers":      workers,
		"shards":       shards,
		"organization": organization,
		"opstream_sha": streamDigest(w, seed, workers),
		"opstream_ops": digestOps * workers,
	}
}
