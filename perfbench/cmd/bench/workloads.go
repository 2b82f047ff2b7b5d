package main

import "cynthia/perfbench/bench"

// workload is one traffic mix. Every run has a quote stage on a plain
// master and a job stage on a durable one, so every end-to-end metric is
// measured on every workload; the workloads differ in the questions
// those stages ask.
type workload struct {
	// durableSetup spawns the master with a fresh state dir when timing
	// set-up, as the workload's primary master runs.
	durableSetup bool
	// quotes returns question i of the quote stage's stream.
	quotes func(seed int64) func(i int) bench.Question
	// warm returns questions asked before timing, so profiles are cached
	// (and, for the hot mix, every answer).
	warm func(seed int64) []bench.Question
	// jobs returns the job stage's fixed job list in an order set by seed.
	jobs func(seed int64) []bench.Question
	// openRate is the open-loop quote rate, fixed well below saturation
	// on a 2-CPU machine so a faster master shows as lower latency.
	openRate float64
}

// jobCount is the job stage's size per round: the rounds together submit
// at least 200 jobs, so job_p95_ms keeps ten samples beyond it. It is a
// fixed count, not a duration, because every snapshot marshals the
// whole, still-growing world and a duration-bound stage would charge a
// faster commit for the extra history it builds. A multiple of 8 keeps
// the eight (workload, loss) cells of the stratified sets equal.
const jobCount = 120

// warmOnePerRange asks one question per range from a stream no timed
// phase uses, caching each workload's profile before timing.
func warmOnePerRange(ranges []bench.GoalRange) func(seed int64) []bench.Question {
	return func(seed int64) []bench.Question {
		s := bench.NewColdStream(ranges, ^seed)
		out := make([]bench.Question, len(ranges))
		for i := range out {
			out[i] = s.At(i)
		}
		return out
	}
}

var workloads = map[string]workload{
	// quote-hot: a few repeated questions, answered from the plan
	// service's cache after the warm-up; isolates the cached quote path.
	"quote-hot": {
		quotes: func(seed int64) func(int) bench.Question {
			return func(i int) bench.Question { return bench.HotAt(seed, i) }
		},
		warm:     func(int64) []bench.Question { return bench.HotQuestions() },
		jobs:     func(seed int64) []bench.Question { return bench.HotJobs(jobCount, seed) },
		openRate: 800,
	},
	// quote-cold: every question new, so every quote runs the Theorem 4.1
	// search and the cache only inserts and evicts.
	"quote-cold": {
		quotes: func(seed int64) func(int) bench.Question {
			return bench.NewColdStream(bench.FeasibleRanges, seed).At
		},
		warm:     warmOnePerRange(bench.FeasibleRanges),
		jobs:     func(seed int64) []bench.Question { return bench.StratifiedJobs(bench.FeasibleRanges, jobCount, seed) },
		openRate: 150,
	},
	// jobs-durable: the write path, with goals no plan meets. Its quote
	// stage re-asks the job set's questions, a working set the cache
	// holds after one pass.
	"jobs-durable": {
		durableSetup: true,
		quotes: func(seed int64) func(int) bench.Question {
			jobs := bench.StratifiedJobs(bench.Table1Ranges, jobCount, seed)
			return func(i int) bench.Question { return jobs[i%len(jobs)] }
		},
		warm: warmOnePerRange(bench.Table1Ranges),
		jobs: func(seed int64) []bench.Question {
			return bench.StratifiedJobs(bench.Table1Ranges, jobCount, seed)
		},
		openRate: 400,
	},
}
