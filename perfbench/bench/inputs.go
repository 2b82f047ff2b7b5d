package bench

import (
	"encoding/json"
	"math"
	"math/rand"
)

// Question is one planning question, the body of POST /api/plan and
// POST /api/jobs.
type Question struct {
	Workload    string  `json:"workload"`
	DeadlineSec float64 `json:"deadline_sec"`
	LossTarget  float64 `json:"loss_target"`
}

// Body returns the question's JSON request body.
func (q Question) Body() []byte {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // three plain fields always marshal
	}
	return b
}

// weighted is one entry of the hot mix.
type weighted struct {
	q      Question
	weight int
}

// hotMix is a tenant population re-asking a few questions: two of each
// Table 1 workload, weights summing to 100. It holds one tight VGG-19
// goal on which the Eq. 2-7 model is optimistic (the plan is feasible
// but trains past 1.05·Tg), so deadline misses are measured here too.
var hotMix = []weighted{
	{Question{"cifar10 DNN", 10800, 0.8}, 25},
	{Question{"mnist DNN", 1800, 0.2}, 25},
	{Question{"ResNet-32", 5400, 0.8}, 12},
	{Question{"VGG-19", 3600, 0.7}, 12},
	{Question{"cifar10 DNN", 9000, 1.0}, 8},
	{Question{"mnist DNN", 3600, 0.3}, 8},
	{Question{"ResNet-32", 7200, 0.7}, 5},
	{Question{"VGG-19", 1200, 0.8}, 5},
}

// HotQuestions returns the distinct questions of the hot mix.
func HotQuestions() []Question {
	out := make([]Question, len(hotMix))
	for i, h := range hotMix {
		out[i] = h.q
	}
	return out
}

// HotAt returns question i of the hot stream for seed: a weighted draw
// from the hot mix that any index can be asked for directly.
func HotAt(seed int64, i int) Question {
	r := int(splitmix(uint64(seed)<<32^uint64(i)) % 100)
	for _, h := range hotMix {
		if r < h.weight {
			return h.q
		}
		r -= h.weight
	}
	panic("hot mix weights must sum to 100")
}

// splitmix is the SplitMix64 finalizer, a cheap well-mixed hash.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// HotJobs returns n jobs holding each hot question in exact proportion
// to its weight (rounded down, the remainder cycling through the mix),
// in an order shuffled by seed. Exact proportions keep the job stage's
// figures from drifting with the seed.
func HotJobs(n int, seed int64) []Question {
	out := make([]Question, 0, n)
	for _, h := range hotMix {
		for i := 0; i < n*h.weight/100; i++ {
			out = append(out, h.q)
		}
	}
	for i := 0; len(out) < n; i++ {
		out = append(out, hotMix[i%len(hotMix)].q)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// GoalRange spans the goals drawn for one workload: a loss target from
// Losses and a deadline in [LoSec, HiSec].
type GoalRange struct {
	Workload     string
	Losses       []float64
	LoSec, HiSec float64
}

// Table1Ranges cover all four Table 1 workloads. cifar10 DNN deadlines
// stop at 6300 s: tighter goals need 8-56 BSP workers, whose simulation
// takes 0.1-80 s a job. ResNet-32 below about 3400 s holds goals no plan
// meets; VGG-19 below about 1800 s holds goals the Eq. 2-7 model is
// optimistic about (the plan is feasible but trains past 1.05·Tg).
var Table1Ranges = []GoalRange{
	{"mnist DNN", []float64{0.2, 0.3}, 600, 7200},
	{"cifar10 DNN", []float64{0.8, 1.0}, 6300, 10800},
	{"ResNet-32", []float64{0.7, 0.8}, 1800, 10800},
	{"VGG-19", []float64{0.7, 0.8}, 1200, 7200},
}

// FeasibleRanges are Table1Ranges without the ResNet-32 goals no plan
// meets: every question has a plan that meets its goal.
var FeasibleRanges = []GoalRange{
	Table1Ranges[0], Table1Ranges[1],
	{"ResNet-32", []float64{0.7, 0.8}, 3600, 10800},
	Table1Ranges[3],
}

// goldenFrac is 1/φ: stepping a fraction by it never repeats and covers
// [0, 1) evenly for any prefix length.
var goldenFrac = (math.Sqrt(5) - 1) / 2

// ColdStream yields an unbounded sequence of distinct questions over
// ranges: workloads and losses cycle, deadlines follow a golden-ratio
// sequence with a seeded offset, so any prefix samples every range
// evenly and no question repeats.
type ColdStream struct {
	ranges  []GoalRange
	offsets []float64
}

// NewColdStream returns the stream for seed.
func NewColdStream(ranges []GoalRange, seed int64) *ColdStream {
	rng := rand.New(rand.NewSource(seed))
	s := &ColdStream{ranges: ranges, offsets: make([]float64, len(ranges))}
	for i := range s.offsets {
		s.offsets[i] = rng.Float64()
	}
	return s
}

// At returns question i of the stream.
func (s *ColdStream) At(i int) Question {
	r := s.ranges[i%len(s.ranges)]
	k := i / len(s.ranges)
	u := math.Mod(s.offsets[i%len(s.ranges)]+float64(k)*goldenFrac, 1)
	return Question{
		Workload:    r.Workload,
		DeadlineSec: r.LoSec + (r.HiSec-r.LoSec)*u,
		LossTarget:  r.Losses[k%len(r.Losses)],
	}
}

// StratifiedJobs returns n distinct jobs over ranges: an equal share per
// (workload, loss) cell, one deadline at the middle of each equal-width
// stratum of the range, in an order shuffled by seed. The set itself is
// the same for every seed, so its cost, difficulty and deadline misses
// are too; the seed changes which jobs run side by side.
func StratifiedJobs(ranges []GoalRange, n int, seed int64) []Question {
	cells := 0
	for _, r := range ranges {
		cells += len(r.Losses)
	}
	per := n / cells
	var out []Question
	for _, r := range ranges {
		for _, loss := range r.Losses {
			for j := 0; j < per; j++ {
				u := (float64(j) + 0.5) / float64(per)
				out = append(out, Question{r.Workload, r.LoSec + (r.HiSec-r.LoSec)*u, loss})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
