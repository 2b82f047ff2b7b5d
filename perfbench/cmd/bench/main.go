// Command bench is the master benchmark. It drives the real cmd/master
// binary over loopback with one of three workloads, checks every answer
// against reference plans, and prints every end-to-end metric by name
// with its unit. With -trace 1 it runs the same workload and seed again
// against a traced master and prints the per-layer metrics instead.
//
// Usage (from the repository root, after building both masters):
//
//	bench -bin .bench_build/bin -workload quote-hot -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is the JSON result; the lines before
// it are the environment record, per-phase operation counts and the
// metrics in readable form.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cynthia/perfbench/bench"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: quote-hot, quote-cold or jobs-durable")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 15, "seconds of quote load per run, split over the rounds")
		trace   = flag.Int("trace", 0, "1 runs the traced master too and reports per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the master and tracedmaster binaries")
		work    = flag.String("work", ".bench_build", "directory for state dirs, logs and the trace file")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(name string, seed int64, seconds int, traced bool, bin, work string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want quote-hot, quote-cold or jobs-durable)", name)
	}
	if seconds < 3 {
		return fmt.Errorf("seconds must be at least 3: each round's closed loop needs a whole %v rate window", rateWindow)
	}
	for _, b := range []string{"master", "tracedmaster"} {
		if _, err := os.Stat(filepath.Join(bin, b)); err != nil {
			return fmt.Errorf("missing binary: %w", err)
		}
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	env := environment()
	fmt.Printf("env: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n", env.NProc, env.GoMaxProcs, env.CPU, env.Go, env.Commit)
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%v\n", name, seed, seconds, traced)

	r := &runner{
		w: w, seed: seed, quoteDur: time.Duration(seconds) * time.Second / rounds,
		clients: runtime.NumCPU(), dir: dir,
	}
	if r.ref, err = bench.NewReference(); err != nil {
		return err
	}
	untraced, err := r.measure(filepath.Join(bin, "master"), false)
	if err != nil {
		return err
	}
	out := result{Metrics: map[string]metric{}}
	report := func(m *measurement) {
		for i, q := range m.quotes {
			j := m.jobs[i]
			lag50, _ := bench.TailPercentile(q.lagMs, 0.50)
			lag99, _ := bench.TailPercentile(q.lagMs, 0.99)
			p50, _ := bench.TailPercentile(q.openLat, 0.50)
			p99, _ := bench.TailPercentile(q.openLat, 0.99)
			fmt.Printf("round %d%s: closed %.0f quotes/s; open %.0f/s p50 %.3fms p99 %.3fms, generator lag p50 %.3fms p99 %.3fms; %.1f jobs/s; restarts %.3fs\n",
				i+1, map[bool]string{true: " (traced)"}[m.traced], q.rps, r.w.openRate, p50, p99, lag50, lag99, float64(len(j.jobs))/j.sec, j.restartS)
		}
		for _, p := range m.phases {
			fmt.Printf("phase %-14s sent %6d  succeeded %6d  failed %d\n", p.name, p.sent, p.sent-p.failed, p.failed)
			out.Attempted += p.sent
			out.Failed += p.failed
		}
	}
	report(untraced)
	if !traced {
		out.Metrics = untraced.endToEnd()
	} else {
		tr, err := r.measure(filepath.Join(bin, "tracedmaster"), true)
		if err != nil {
			return err
		}
		report(tr)
		mismatches := sameOutputs(untraced, tr)
		for _, m := range mismatches {
			fmt.Fprintln(os.Stderr, "traced/untraced mismatch:", m)
		}
		out.Failed += len(mismatches)
		if out.Metrics, err = r.perLayer(untraced, tr); err != nil {
			return err
		}
		tracePath := filepath.Join(work, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := writeChromeTrace(tracePath, tr); err != nil {
			return err
		}
		fmt.Printf("trace: %s\n", tracePath)
	}
	names := make([]string, 0, len(out.Metrics))
	for k := range out.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := out.Metrics[k]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
		fmt.Printf("metric %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
