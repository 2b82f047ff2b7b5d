package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cynthia/internal/cluster"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
	"cynthia/perfbench/bench"
)

const (
	setupSpawns = 5 // set-up samples per run; the median is reported
	// rounds repeats the quote and job stages, each on fresh masters,
	// interleaved over the run; end-to-end metrics are medians over the
	// rounds, so a few seconds of interference on a shared machine move
	// one round, not the result.
	rounds = 3
	// restartsPerRound SIGKILLs and restarts each round's job master this
	// many times; restart_s is the median over every restart of the run.
	restartsPerRound = 2
	// maxLagMs bounds the open-loop dispatcher's median lateness. A
	// generator later than this for half its requests fell behind the
	// schedule and did not offer the load, so the phase is invalid. Brief
	// stalls of the whole machine delay single requests; they are charged
	// to those requests' latency and reported as generator lag.
	maxLagMs = 1.0
	// openSamples is the least number of open-loop quotes per round: the
	// rounds together keep ten samples beyond p99.
	openSamples = 400
	// rateWindow slices the closed loop; quote_rps is the median window
	// rate over the run, so a burst of interference from elsewhere on the
	// machine moves a few windows, not the result.
	rateWindow    = 500 * time.Millisecond
	quoteTimeout  = 10 * time.Second
	jobTimeout    = 60 * time.Second
	healthTimeout = 60 * time.Second
)

type runner struct {
	w        workload
	seed     int64
	quoteDur time.Duration // closed plus open loop, per round
	clients  int
	dir      string
	ref      *bench.Reference
	spawns   int // names log files and state dirs uniquely
}

// phase is one phase's operation counts over all rounds, as printed.
type phase struct {
	name         string
	sent, failed int
}

// quoteOut is one quote as the generator saw it.
type quoteOut struct {
	idx    int
	q      bench.Question
	trace  string
	status int
	body   []byte
	err    error
	svcMs  float64 // from send to the last body byte
	// doneSec is when a closed-loop quote completed, from the loop's start.
	doneSec float64
	resp    cluster.PlanResponse
}

func (o *quoteOut) ok() bool { return o.err == nil && o.status == http.StatusOK }

// jobOut is one job submission as the generator saw it.
type jobOut struct {
	q      bench.Question
	trace  string
	status int
	err    error
	body   []byte
	latMs  float64
	// resp is decoded right after the job phase: the restart check
	// compares the recovered jobs with it.
	resp      cluster.JobResponse
	decodeErr error
	want      plan.Plan
}

func (o *jobOut) ok() bool {
	return o.err == nil && (o.status == http.StatusCreated || o.status == http.StatusUnprocessableEntity)
}

// quoteRound is one quote stage on its own plain master.
type quoteRound struct {
	closed  []quoteOut
	open    []quoteOut
	openLat []float64 // ms from due time, +Inf when failed
	lagMs   []float64
	rps     float64
	// windowRPS is the closed loop's rate in each whole rateWindow.
	windowRPS []float64
	cpuUs     float64 // master CPU time per closed-loop quote
	rssMB     float64
	conns     [2]int64 // reused, fresh
	dump      bench.TraceDump
}

// jobRound is one job stage on its own durable master.
type jobRound struct {
	jobs     []jobOut
	sec      float64
	restartS []float64
	stateMB  float64
	rssMB    float64
	stateDir string
	dump     bench.TraceDump
}

// measurement is everything one pass over the workload measured.
type measurement struct {
	traced bool
	phases []phase
	setupS []float64
	quotes []quoteRound
	jobs   []jobRound
}

func (m *measurement) phase(name string) *phase {
	for i := range m.phases {
		if m.phases[i].name == name {
			return &m.phases[i]
		}
	}
	m.phases = append(m.phases, phase{name: name})
	return &m.phases[len(m.phases)-1]
}

func (r *runner) freshPath(kind string) string {
	r.spawns++
	return filepath.Join(r.dir, fmt.Sprintf("%s-%d", kind, r.spawns))
}

// measure runs the workload against bin: set-up timing (untraced only),
// then the rounds of the quote stage and the job stage.
func (r *runner) measure(bin string, traced bool) (*measurement, error) {
	m := &measurement{traced: traced}
	if !traced {
		if err := r.setup(m, bin); err != nil {
			return nil, err
		}
	}
	for i := 0; i < rounds; i++ {
		q, err := r.quoteStage(m, bin)
		if err != nil {
			return nil, err
		}
		m.quotes = append(m.quotes, q)
		j, err := r.jobStage(m, bin)
		if err != nil {
			return nil, err
		}
		m.jobs = append(m.jobs, j)
	}
	return m, r.check(m)
}

// start spawns bin; a traced master also gets the file for its spans.
func (r *runner) start(bin string, traced bool, dump string, args ...string) (*bench.Proc, error) {
	if traced {
		args = append(args, "-out", dump)
	}
	return bench.StartMaster(bin, r.freshPath(filepath.Base(bin))+".log", args...)
}

// setup times spawning the master to its first healthy answer.
func (r *runner) setup(m *measurement, bin string) error {
	ph := m.phase("setup")
	for i := 0; i < setupSpawns; i++ {
		var args []string
		if r.w.durableSetup {
			args = []string{"-state-dir", r.freshPath("state")}
		}
		p, err := r.start(bin, false, "", args...)
		if err != nil {
			return err
		}
		ph.sent++
		d, err := p.WaitHealthy(healthTimeout)
		if err != nil {
			_ = p.Kill()
			return err
		}
		m.setupS = append(m.setupS, d.Seconds())
		if err := p.Stop(); err != nil {
			return fmt.Errorf("stopping set-up master: %w", err)
		}
	}
	return nil
}

// prefix starts the trace IDs the generator mints for one stage of one
// round: unique within the run, since job and quote indices repeat.
func prefix(m *measurement, stage string, round int) string {
	pre := fmt.Sprintf("%s%d-", stage, round)
	if m.traced {
		return "t" + pre
	}
	return pre
}

func quote(c *bench.Client, q bench.Question, i int, pre string) quoteOut {
	o := quoteOut{idx: i, q: q, trace: fmt.Sprintf("%s%d", pre, i)}
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), quoteTimeout)
	defer cancel()
	o.status, o.body, o.err = c.Do(ctx, http.MethodPost, "/api/plan", o.trace, q.Body())
	o.svcMs = msSince(start)
	if o.ok() {
		// Decoded now so the generator does not hold every body: a large
		// heap would slow its own collector and show up as latency.
		if o.err = json.Unmarshal(o.body, &o.resp); o.err == nil {
			o.body = nil
		}
	}
	return o
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// quoteStage runs the warm-up, a closed loop and an open loop on a fresh
// plain master. Every round asks the same question stream from its
// start, so the cold stream is new to each master while the reference
// answers are computed once.
func (r *runner) quoteStage(m *measurement, bin string) (quoteRound, error) {
	var qr quoteRound
	dump := r.freshPath("quote-spans") + ".json"
	p, err := r.start(bin, m.traced, dump)
	if err != nil {
		return qr, err
	}
	defer func() { _ = p.Kill() }()
	if _, err := p.WaitHealthy(healthTimeout); err != nil {
		return qr, err
	}
	c := bench.NewClient(p.Addr, r.clients)
	defer c.Close()
	at := r.w.quotes(r.seed)

	warm := r.w.warm(r.seed)
	m.phase("quote-warm").sent += len(warm)
	for i, q := range warm {
		if o := quote(c, q, i, prefix(m, "w", len(m.quotes)+1)); !o.ok() {
			return qr, fmt.Errorf("warm-up quote %+v: status %d, %v: %s", q, o.status, o.err, o.body)
		}
	}

	var next atomic.Int64
	pre := prefix(m, "q", len(m.quotes)+1)
	// Closed loop: one client per CPU, each sending its next quote when
	// the last one is answered.
	outs := make([][]quoteOut, r.clients)
	cpu0, err := p.CPUSeconds()
	if err != nil {
		return qr, err
	}
	start := time.Now()
	deadline := start.Add(r.quoteDur / 2)
	var wg sync.WaitGroup
	for k := 0; k < r.clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				o := quote(c, at(i), i, pre)
				o.doneSec = time.Since(start).Seconds()
				outs[k] = append(outs[k], o)
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	for _, o := range outs {
		qr.closed = append(qr.closed, o...)
	}
	succeeded := 0
	perWindow := make([]int, int(elapsed/rateWindow.Seconds()))
	for i := range qr.closed {
		if o := &qr.closed[i]; o.ok() {
			succeeded++
			if w := int(o.doneSec / rateWindow.Seconds()); w < len(perWindow) {
				perWindow[w]++
			}
		}
	}
	qr.rps = float64(succeeded) / elapsed
	for _, n := range perWindow {
		qr.windowRPS = append(qr.windowRPS, float64(n)/rateWindow.Seconds())
	}
	cpu1, err := p.CPUSeconds()
	if err != nil {
		return qr, err
	}
	qr.cpuUs = 1e6 * (cpu1 - cpu0) / float64(succeeded)
	m.phase("quote-closed").sent += len(qr.closed)

	// Open loop: a fixed rate, each quote timed from when it fell due.
	sched := bench.Schedule{Start: time.Now().Add(10 * time.Millisecond), Rate: r.w.openRate}
	openDur := max(r.quoteDur/2, time.Duration(float64(openSamples)/r.w.openRate*float64(time.Second)))
	n := sched.Count(openDur)
	base := int(next.Load())
	qr.open = make([]quoteOut, n)
	res := bench.RunOpenLoop(sched, n, r.clients, func(j int) bool {
		qr.open[j] = quote(c, at(base+j), base+j, pre)
		return qr.open[j].ok()
	})
	qr.openLat, qr.lagMs = res.LatencyMs, res.LagMs
	m.phase("quote-open").sent += n
	if lag := bench.Median(qr.lagMs); lag > maxLagMs {
		return qr, fmt.Errorf("open-loop generator fell behind (median lag %.3fms > %.0fms): phase invalid, latency not reported", lag, maxLagMs)
	}

	if qr.rssMB, err = p.PeakRSSMB(); err != nil {
		return qr, err
	}
	qr.conns[0], qr.conns[1] = c.Conns()
	if err := p.Stop(); err != nil {
		return qr, fmt.Errorf("stopping quote master: %w", err)
	}
	if m.traced {
		err = readDump(dump, &qr.dump)
	}
	return qr, err
}

func readDump(path string, d *bench.TraceDump) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, d)
}

// jobStage submits the fixed job list to a fresh durable master. On the
// untraced pass it then SIGKILLs the master and times a restart over the
// same state dir, checking that every job is recovered as it finished.
func (r *runner) jobStage(m *measurement, bin string) (jobRound, error) {
	jr := jobRound{stateDir: r.freshPath("state")}
	dump := r.freshPath("job-spans") + ".json"
	p, err := r.start(bin, m.traced, dump, "-state-dir", jr.stateDir)
	if err != nil {
		return jr, err
	}
	defer func() { _ = p.Kill() }()
	if _, err := p.WaitHealthy(healthTimeout); err != nil {
		return jr, err
	}
	c := bench.NewClient(p.Addr, r.clients)
	defer c.Close()
	// Each round submits the same jobs in its own order, so which jobs
	// overlap varies inside a run rather than from seed to seed.
	jobs := r.w.jobs(r.seed + int64(len(m.jobs)))
	jr.jobs = make([]jobOut, len(jobs))
	pre := prefix(m, "j", len(m.jobs)+1)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < r.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				o := &jr.jobs[i]
				o.q, o.trace = jobs[i], fmt.Sprintf("%s%d", pre, i)
				t0 := time.Now()
				ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
				o.status, o.body, o.err = c.Do(ctx, http.MethodPost, "/api/jobs?wait=true", o.trace, o.q.Body())
				cancel()
				o.latMs = msSince(t0)
			}
		}()
	}
	wg.Wait()
	jr.sec = time.Since(start).Seconds()
	for i := range jr.jobs {
		if o := &jr.jobs[i]; o.ok() {
			o.decodeErr = json.Unmarshal(o.body, &o.resp)
		}
	}
	m.phase("jobs").sent += len(jobs)
	if jr.rssMB, err = p.PeakRSSMB(); err != nil {
		return jr, err
	}
	if jr.stateMB, err = dirMB(jr.stateDir); err != nil {
		return jr, err
	}
	if m.traced {
		if err := p.Stop(); err != nil {
			return jr, fmt.Errorf("stopping job master: %w", err)
		}
		return jr, readDump(dump, &jr.dump)
	}

	ph := m.phase("restart")
	for i := 0; i < restartsPerRound; i++ {
		if err := p.Kill(); err != nil {
			return jr, err
		}
		ph.sent++
		if p, err = r.start(bin, false, "", "-state-dir", jr.stateDir); err != nil {
			return jr, err
		}
		d, err := p.WaitHealthy(healthTimeout)
		if err != nil {
			return jr, err
		}
		jr.restartS = append(jr.restartS, d.Seconds())
		if err := checkRecovered(p, jr.jobs); err != nil {
			fmt.Fprintln(os.Stderr, "restart:", err)
			ph.failed++
		}
	}
	return jr, p.Stop()
}

// checkRecovered compares the restarted master's job list with what the
// job stage saw.
func checkRecovered(p *bench.Proc, jobs []jobOut) error {
	c := bench.NewClient(p.Addr, 1)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), quoteTimeout)
	defer cancel()
	status, body, err := c.Do(ctx, http.MethodGet, "/api/jobs", "", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /api/jobs after restart: status %d, %v", status, err)
	}
	var got []cluster.JobResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got) != len(jobs) {
		return fmt.Errorf("recovered %d jobs, submitted %d", len(got), len(jobs))
	}
	byID := make(map[string]cluster.JobResponse, len(got))
	for _, j := range got {
		byID[j.ID] = j
	}
	for _, o := range jobs {
		j, ok := byID[o.resp.ID]
		if !ok || j.Status != o.resp.Status || j.TrainingSec != o.resp.TrainingSec || j.CostUSD != o.resp.CostUSD {
			return fmt.Errorf("job %s recovered as %+v, finished as %+v", o.resp.ID, j, o.resp)
		}
	}
	return nil
}

func dirMB(dir string) (float64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / (1 << 20), err
}

// check decodes every answer and compares it with the reference plans;
// every run of the same question must also end exactly as its first run
// did. A mismatch fails its operation.
func (r *runner) check(m *measurement) error {
	var qs []bench.Question
	for _, qr := range m.quotes {
		for _, set := range [][]quoteOut{qr.closed, qr.open} {
			for i := range set {
				qs = append(qs, set[i].q)
			}
		}
	}
	for _, jr := range m.jobs {
		for i := range jr.jobs {
			qs = append(qs, jr.jobs[i].q)
		}
	}
	if err := r.ref.Prefetch(qs, r.clients); err != nil {
		return err
	}
	fail := func(ph *phase, format string, args ...any) {
		ph.failed++
		if ph.failed <= 5 {
			fmt.Fprintf(os.Stderr, "%s: "+format+"\n", append([]any{ph.name}, args...)...)
		}
	}
	for _, qr := range m.quotes {
		for k, set := range [][]quoteOut{qr.closed, qr.open} {
			ph := m.phase([]string{"quote-closed", "quote-open"}[k])
			for i := range set {
				o := &set[i]
				if !o.ok() {
					fail(ph, "quote %s: status %d, %v: %s", o.trace, o.status, o.err, o.body)
					continue
				}
				want, err := r.ref.Plan(o.q)
				if err != nil {
					return err
				}
				if err := bench.CheckQuote(o.resp, want); err != nil {
					fail(ph, "%s %+v: %v", o.trace, o.q, err)
				}
			}
		}
	}
	jph := m.phase("jobs")
	first := map[bench.Question]cluster.JobResponse{}
	for k, jr := range m.jobs {
		for i := range jr.jobs {
			o := &jr.jobs[i]
			if !o.ok() || o.decodeErr != nil {
				fail(jph, "job %s: status %d, %v %v: %s", o.trace, o.status, o.err, o.decodeErr, o.body)
				continue
			}
			want, err := r.ref.Plan(o.q)
			if err != nil {
				return err
			}
			o.want = want
			if err := bench.CheckJob(o.resp, o.q, want); err != nil {
				fail(jph, "%s %+v: %v", o.trace, o.q, err)
			} else if prev, ok := first[o.q]; !ok {
				first[o.q] = o.resp
			} else if d := jobDiff(prev, o.resp); d != "" {
				fail(jph, "round %d: %+v ended differently from before: %s", k+1, o.q, d)
			}
		}
	}
	return nil
}

// jobDiff describes how two runs of the same job ended differently, or
// returns "".
func jobDiff(a, b cluster.JobResponse) string {
	if a.InstanceType != b.InstanceType || a.Workers != b.Workers || a.PS != b.PS || a.Iterations != b.Iterations ||
		a.PredTimeSec != b.PredTimeSec || a.CostUSD != b.CostUSD || a.TrainingSec != b.TrainingSec || a.Status != b.Status {
		return fmt.Sprintf("%+v, then %+v", a, b)
	}
	return ""
}

// lastService returns the plan service counters of the round's last
// answered quote.
func (qr *quoteRound) lastService() service.Stats {
	var last service.Stats
	for _, set := range [][]quoteOut{qr.closed, qr.open} {
		for i := range set {
			if set[i].ok() && set[i].resp.Service.Requests > last.Requests {
				last = set[i].resp.Service
			}
		}
	}
	return last
}

// peakRSS is the larger peak resident set of a round's two masters.
func peakRSS(q quoteRound, j jobRound) float64 { return math.Max(q.rssMB, j.rssMB) }
