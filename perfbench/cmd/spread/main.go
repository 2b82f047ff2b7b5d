// Command spread runs the benchmark on one workload with consecutive
// seeds and reports each end-to-end metric's median, quartiles and
// spread (interquartile distance over the median) against the bound in
// BENCHMARK.json: the check a benchmark's figures must pass before their
// medians can be compared across commits.
//
// Usage, from the perfbench directory:
//
//	go run ./cmd/spread -root .. -workload quote-hot -runs 10 -seed 101
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"cynthia/perfbench/bench"
)

type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	var (
		root     = flag.String("root", "..", "repository root")
		workload = flag.String("workload", "", "workload to run")
		runs     = flag.Int("runs", 10, "number of runs, one seed each")
		seed     = flag.Int64("seed", 101, "first seed")
	)
	flag.Parse()
	if err := run(*root, *workload, *runs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "spread:", err)
		os.Exit(1)
	}
}

func run(root, workload string, runs int, seed int64) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return err
	}
	values := map[string][]float64{}
	for i := 0; i < runs; i++ {
		s := strconv.FormatInt(seed+int64(i), 10)
		cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload, "--seed", s,
			"--seconds", strconv.Itoa(sp.RunSeconds), "--trace", "0")
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %s: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("seed %s: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %s: outputs failed their checks", s)
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}
	fmt.Printf("%-20s %12s %12s %12s %7s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
	for _, m := range sp.EndToEnd {
		v := values[m.Name]
		q1, q3 := bench.Quartiles(v)
		verdict := ""
		if m.Name != "setup_s" && bench.Spread(v) > m.Bound {
			verdict = "  over bound"
		}
		fmt.Printf("%-20s %12.5g %12.5g %12.5g %7.3f %6.2f%s\n", m.Name, bench.Median(v), q1, q3, bench.Spread(v), m.Bound, verdict)
		fmt.Printf("%20s %v\n", "", v)
	}
	return nil
}
