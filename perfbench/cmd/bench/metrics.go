package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/plan"
	"cynthia/perfbench/bench"
)

// catalog prices plans; the master under test runs the same default catalog.
var catalog = cloud.DefaultCatalog()

// endToEnd computes the metrics a user of the master sees. quote_rps is
// the median closed-loop rate over every rateWindow of the run;
// jobs_per_s and the durability figures are medians over the rounds.
// Latency percentiles
// pool every round's samples: a tail percentile needs more samples than
// one round holds to read the same twice. Job outcomes are the same every
// round (check fails a round that differs), so they come from the first.
func (m *measurement) endToEnd() map[string]metric {
	var rps, quoteLat, jps, jobLat, restart, state, rss []float64
	for i := range m.quotes {
		q, j := m.quotes[i], m.jobs[i]
		rps = append(rps, q.windowRPS...)
		quoteLat = append(quoteLat, q.openLat...)
		terminal := 0
		for k := range j.jobs {
			if o := &j.jobs[k]; o.ok() && o.decodeErr == nil {
				terminal++
				jobLat = append(jobLat, o.latMs)
			} else {
				jobLat = append(jobLat, math.Inf(1))
			}
		}
		jps = append(jps, float64(terminal)/j.sec)
		restart = append(restart, j.restartS...)
		state = append(state, j.stateMB)
		rss = append(rss, peakRSS(q, j))
	}
	var predErr, cost []float64
	feasible, missed := 0, 0
	for k := range m.jobs[0].jobs {
		o := &m.jobs[0].jobs[k]
		if !o.ok() || o.decodeErr != nil {
			continue
		}
		predErr = append(predErr, 100*math.Abs(o.resp.TrainingSec-o.resp.PredTimeSec)/o.resp.PredTimeSec)
		cost = append(cost, plannedCost(o.resp))
		if o.want.Feasible {
			feasible++
			if o.resp.Status != string(cluster.StatusSucceeded) {
				missed++
			}
		}
	}
	return map[string]metric{
		"setup_s":           {bench.Median(m.setupS), "s"},
		"peak_rss_mb":       {bench.Median(rss), "MB"},
		"quote_rps":         {bench.Median(rps), "1/s"},
		"quote_p50_ms":      {tail("quote_p50_ms", quoteLat, 0.50), "ms"},
		"jobs_per_s":        {bench.Median(jps), "1/s"},
		"job_p50_ms":        {tail("job_p50_ms", jobLat, 0.50), "ms"},
		"job_p95_ms":        {tail("job_p95_ms", jobLat, 0.95), "ms"},
		"restart_s":         {bench.Median(restart), "s"},
		"state_mb":          {bench.Median(state), "MB"},
		"deadline_miss_pct": {100 * float64(missed) / float64(feasible), "%"},
		"pred_err_pct":      {bench.Median(predErr), "%"},
		"plan_cost_usd":     {bench.Mean(cost), "USD"},
	}
}

// tail is bench.TailPercentile, noting on stderr when too few samples
// lay beyond p and a lower percentile was reported.
func tail(name string, xs []float64, p float64) float64 {
	v, used := bench.TailPercentile(xs, p)
	if used < p {
		fmt.Fprintf(os.Stderr, "%s: %d samples leave fewer than %d beyond p%g; reporting p%.4g\n",
			name, len(xs), bench.MinTail, 100*p, 100*used)
	}
	return v
}

// plannedCost prices a job's chosen plan by Eq. 8 from the master's own
// answer: its instance type, docker counts and predicted time.
func plannedCost(j cluster.JobResponse) float64 {
	t, err := catalog.Lookup(j.InstanceType)
	if err != nil {
		return math.NaN()
	}
	return plan.Cost(t, j.Workers, j.PS, j.PredTimeSec)
}

// env is the record of where a result was measured.
type env struct {
	NProc, GoMaxProcs int
	CPU, Go, Commit   string
}

func environment() env {
	return env{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     treeHash("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash identifies the source under test: a checkout need not be a
// git repository, so the commit is recorded as a hash over every Go
// source and module file, skipping dot directories (build output).
func treeHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
