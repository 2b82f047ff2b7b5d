package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/cluster/replay"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/obs/journal/wal"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
	"cynthia/perfbench/bench"
)

// node is a span placed in its request's tree.
type node struct {
	bench.Span
	parent int // index into the node slice, -1 for a root or an orphan
	self   time.Duration
	tid    int // one row per request in the Chrome trace
}

func (n node) layer() string { name, _, _ := strings.Cut(n.Name, "."); return name }

// buildTree links the traced pass's spans into per-request trees. Spans
// carrying only a job ID join that job's trace; the controller's phases
// between barriers become derived spans (ctrl.pre_train, ddnnsim.train,
// ctrl.finish). A span's parent is the smallest span of its trace that
// contains it, and its self time is its duration less the part its
// children cover.
func buildTree(q quoteRound, j jobRound) []node {
	spans := append(append([]bench.Span(nil), q.dump.Spans...), j.dump.Spans...)
	jobTrace := map[string]string{}
	for _, s := range spans {
		if s.Name == "plan.search" && s.Job != "" {
			jobTrace[s.Job] = s.Trace
		}
	}
	barriers := map[string]map[string]bench.Span{} // job -> phase -> first barrier
	for i := range spans {
		s := &spans[i]
		if phase, ok := strings.CutPrefix(s.Name, "replay.barrier."); ok {
			s.Trace = jobTrace[s.Job]
			if barriers[s.Job] == nil {
				barriers[s.Job] = map[string]bench.Span{}
			}
			if _, seen := barriers[s.Job][phase]; !seen {
				barriers[s.Job][phase] = *s
			}
		}
	}
	for job, b := range barriers {
		derive := func(name, from, to string) {
			f, okf := b[from]
			t, okt := b[to]
			if okf && okt && t.Start >= f.End {
				spans = append(spans, bench.Span{Name: name, Trace: jobTrace[job], Job: job, Start: f.End, End: t.Start})
			}
		}
		derive("ctrl.pre_train", string(cluster.PhaseAdmit), string(cluster.PhaseSegment))
		derive("ddnnsim.train", string(cluster.PhaseSegment), string(cluster.PhaseFinal))
		derive("ctrl.finish", string(cluster.PhaseFinal), string(cluster.PhaseDone))
	}

	nodes := make([]node, len(spans))
	byTrace := map[string][]int{}
	tids := map[string]int{}
	for i, s := range spans {
		nodes[i] = node{Span: s, parent: -1}
		if s.Trace != "" {
			byTrace[s.Trace] = append(byTrace[s.Trace], i)
			if _, ok := tids[s.Trace]; !ok {
				tids[s.Trace] = len(tids) + 1
			}
			nodes[i].tid = tids[s.Trace]
		}
	}
	for _, idx := range byTrace {
		for _, i := range idx {
			best := -1
			for _, j := range idx {
				if i == j || !contains(nodes[j].Span, nodes[i].Span) {
					continue
				}
				// Equal intervals: the request's handler span is the outer one.
				if contains(nodes[i].Span, nodes[j].Span) && !strings.HasPrefix(nodes[j].Name, "api.") {
					continue
				}
				if best < 0 || nodes[j].Dur() < nodes[best].Dur() {
					best = j
				}
			}
			nodes[i].parent = best
		}
	}
	children := map[int][]bench.Span{}
	for i := range nodes {
		if p := nodes[i].parent; p >= 0 {
			children[p] = append(children[p], nodes[i].Span)
		}
	}
	for i := range nodes {
		nodes[i].self = nodes[i].Dur() - covered(nodes[i].Span, children[i])
	}
	return nodes
}

// rootOf follows parent links to the top of n's tree.
func rootOf(nodes []node, n node) node {
	for n.parent >= 0 {
		n = nodes[n.parent]
	}
	return n
}

func contains(outer, inner bench.Span) bool {
	return outer.Start <= inner.Start && inner.End <= outer.End
}

// covered returns how much of s the union of kids covers.
func covered(s bench.Span, kids []bench.Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, end int64
	end = s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, s.End)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return time.Duration(total)
}

func us(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }
func msd(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perLayer computes every per-layer metric from the traced rounds, the
// direct probes that run after them, and the untraced rounds.
func (r *runner) perLayer(un, tr *measurement) (map[string]metric, error) {
	var nodes []node
	for i := range tr.quotes {
		round := buildTree(tr.quotes[i], tr.jobs[i])
		for k := range round {
			if round[k].parent >= 0 {
				round[k].parent += len(nodes)
			}
		}
		nodes = append(nodes, round...)
	}
	out := map[string]metric{}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	pct := func(name string, xs []float64, p float64, unit string) { set(name, tail(name, xs, p), unit) }

	probes, err := r.probe(tr.quotes[0], tr.jobs[0])
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		out[k] = v
	}
	lookupUs, hitUs := probes["model.lookup_us"].Value, probes["plansvc.hit_us"].Value

	// What the generator saw, by trace ID, and the masters' own totals.
	clientMs := map[string]float64{}
	cacheOutcome := map[string]string{}
	var (
		jobIters, jobs                                  int
		reused, fresh, calls                            int64
		hits, requested, coalesced, evicted, overloaded uint64
		gcSec, busySec, heapPeak                        float64
		allocs                                          uint64
	)
	for i, q := range tr.quotes {
		for _, set := range [][]quoteOut{q.closed, q.open} {
			for k := range set {
				if set[k].ok() {
					clientMs[set[k].trace] = set[k].svcMs
					cacheOutcome[set[k].trace] = set[k].resp.Cache
				}
			}
		}
		j := tr.jobs[i]
		for k := range j.jobs {
			if j.jobs[k].ok() {
				clientMs[j.jobs[k].trace] = j.jobs[k].latMs
				jobIters += j.jobs[k].resp.Iterations
			}
		}
		jobs += len(j.jobs)
		reused += q.conns[0]
		fresh += q.conns[1]
		st := q.lastService()
		hits += st.Hits
		requested += st.Requests
		coalesced += st.Coalesced
		evicted += st.Evictions
		overloaded += st.Overloaded
		for _, d := range []bench.TraceDump{q.dump, j.dump} {
			calls += d.PredictorCalls
			gcSec += d.Runtime.GCCPUSec
			busySec += d.Runtime.BusyCPUSec
			allocs += d.Runtime.AllocObjects
			heapPeak = math.Max(heapPeak, float64(d.Runtime.HeapPeakBytes))
		}
	}

	var (
		planUs, apiSelfUs, overheadUs, searchUs, walUs, barrierMs []float64
		preTrainMs, finishMs, trainMs                             []float64
		requests, searches, enumerated, feasible, walBytes        int
		trainSec, rootSec, selfSec                                float64
	)
	searchByTrace := map[string]time.Duration{} // job IDs repeat across rounds; traces do not
	for _, n := range nodes {
		switch {
		case n.Name == "api.plan":
			planUs = append(planUs, us(n.Dur()))
			self := us(n.self) - lookupUs
			if cacheOutcome[n.Trace] == string(service.OutcomeHit) {
				self -= hitUs
			}
			apiSelfUs = append(apiSelfUs, self)
		case n.Name == "plan.search":
			searches++
			searchUs = append(searchUs, us(n.Dur()))
			enumerated += n.Enumerated
			feasible += n.Feasible
			if n.Job != "" {
				searchByTrace[n.Trace] += n.Dur()
			}
		case n.Name == "wal.append":
			walUs = append(walUs, us(n.Dur()))
			walBytes += n.Bytes
		case strings.HasPrefix(n.Name, "replay.barrier."):
			barrierMs = append(barrierMs, msd(n.Dur()))
		case n.Name == "ctrl.finish":
			finishMs = append(finishMs, msd(n.Dur()))
		case n.Name == "ddnnsim.train":
			trainMs = append(trainMs, msd(n.Dur()))
			trainSec += n.Dur().Seconds()
		}
		if strings.HasPrefix(n.Name, "api.") {
			requests++
			rootSec += n.Dur().Seconds()
			if c, ok := clientMs[n.Trace]; ok {
				overheadUs = append(overheadUs, 1000*c-us(n.Dur()))
			}
		}
		if root := rootOf(nodes, n); strings.HasPrefix(root.Name, "api.") {
			selfSec += n.self.Seconds()
		}
	}
	for _, n := range nodes {
		if n.Name == "ctrl.pre_train" {
			preTrainMs = append(preTrainMs, msd(n.Dur()-searchByTrace[n.Trace]))
		}
	}

	set("net.conn_reuse_ratio", float64(reused)/float64(reused+fresh), "ratio")
	set("net.overhead_p50_us", bench.Median(overheadUs), "us")
	pct("api.plan_p50_us", planUs, 0.50, "us")
	pct("api.plan_p99_us", planUs, 0.99, "us")
	set("api.self_us", bench.Median(apiSelfUs), "us")

	set("plansvc.hit_ratio", float64(hits)/float64(requested), "ratio")
	set("plansvc.coalesced", float64(coalesced), "count")
	set("plansvc.evictions", float64(evicted), "count")
	set("plansvc.overloaded", float64(overloaded), "count")

	pct("plan.search_p50_us", searchUs, 0.50, "us")
	pct("plan.search_p99_us", searchUs, 0.99, "us")
	set("plan.searches_per_req", float64(searches)/float64(requests), "ratio")
	set("plan.enumerated_per_search", float64(enumerated)/float64(searches), "count")
	set("plan.feasible_ratio", float64(feasible)/float64(enumerated), "ratio")
	set("perf.calls_per_search", float64(calls)/float64(searches), "count")

	set("ctrl.pre_train_ms", bench.Median(preTrainMs), "ms")
	set("ctrl.finish_ms", bench.Median(finishMs), "ms")
	pct("ddnnsim.train_p50_ms", trainMs, 0.50, "ms")
	pct("ddnnsim.train_p95_ms", trainMs, 0.95, "ms")
	set("ddnnsim.iters_per_s", float64(jobIters)/trainSec, "1/s")

	set("wal.appends_per_job", float64(len(walUs))/float64(jobs), "count")
	set("wal.bytes_per_job", float64(walBytes)/float64(jobs), "B")
	pct("wal.append_p50_us", walUs, 0.50, "us")
	pct("wal.append_p99_us", walUs, 0.99, "us")
	pct("replay.barrier_p50_ms", barrierMs, 0.50, "ms")
	pct("replay.barrier_p99_ms", barrierMs, 0.99, "ms")

	set("go.gc_cpu_pct", 100*gcSec/busySec, "%")
	set("go.allocs_per_req", float64(allocs)/float64(requests), "count")
	set("go.heap_peak_mb", heapPeak/(1<<20), "MB")

	unRPS, trRPS := medianOf(un.quotes, func(q quoteRound) float64 { return q.rps }), medianOf(tr.quotes, func(q quoteRound) float64 { return q.rps })
	unSec, trSec := medianOf(un.jobs, func(j jobRound) float64 { return j.sec }), medianOf(tr.jobs, func(j jobRound) float64 { return j.sec })
	set("trace.overhead_quote_pct", 100*(unRPS-trRPS)/unRPS, "%")
	set("trace.overhead_jobs_pct", 100*(trSec-unSec)/trSec, "%")
	set("trace.accounted_pct", 100*selfSec/rootSec, "%")
	var lag, openLat []float64
	for _, q := range un.quotes {
		lag = append(lag, q.lagMs...)
		openLat = append(openLat, q.openLat...)
	}
	pct("gen.lag_p99_ms", lag, 0.99, "ms")
	// The untraced master's quote tail and CPU cost, which have no bound:
	// on a shared 2-CPU machine the tail swings with stalls of the whole
	// machine far more than any bound allows.
	pct("e2e.quote_p99_ms", openLat, 0.99, "ms")
	set("api.quote_cpu_us", medianOf(un.quotes, func(q quoteRound) float64 { return q.cpuUs }), "us")
	return out, nil
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	return bench.Median(vs)
}

// probe times the layers without a seam in the master directly, after
// the load: workload lookup, plan-service hits, simulator replays of the
// plans the run chose, and recovery of the traced job master's state.
func (r *runner) probe(tq quoteRound, tj jobRound) (map[string]metric, error) {
	out := map[string]metric{}
	var qs []bench.Question
	seenQ := map[bench.Question]bool{}
	for _, set := range [][]quoteOut{tq.closed, tq.open} {
		for i := range set {
			if !seenQ[set[i].q] {
				seenQ[set[i].q] = true
				qs = append(qs, set[i].q)
			}
		}
	}

	// model: WorkloadByName on the run's workload names.
	var lookup []float64
	for _, rg := range bench.Table1Ranges {
		for i := 0; i < 50; i++ {
			t0 := time.Now()
			if _, err := model.WorkloadByName(rg.Workload); err != nil {
				return nil, err
			}
			lookup = append(lookup, us(time.Since(t0)))
		}
	}
	out["model.lookup_us"] = metric{bench.Median(lookup), "us"}

	// plansvc: Service.Plan on warmed keys, timed in batches because a
	// hit is far shorter than the clock's resolution allows per call.
	svc := service.New(service.Config{Catalog: r.ref.Catalog()})
	defer svc.Close()
	keys := qs
	if len(keys) > 64 {
		keys = keys[:64]
	}
	reqs := make([]plan.Request, len(keys))
	for i, q := range keys {
		req, err := r.ref.Request(q)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
		if _, err := svc.Plan(context.Background(), req); err != nil {
			return nil, err
		}
	}
	const batch = 100
	var hit []float64
	for b := 0; b < 200; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := svc.Plan(context.Background(), reqs[(b*batch+i)%len(reqs)]); err != nil {
				return nil, err
			}
		}
		hit = append(hit, us(time.Since(t0))/batch)
	}
	out["plansvc.hit_us"] = metric{bench.Median(hit), "us"}

	if err := replaySims(tj, out); err != nil {
		return nil, err
	}
	if err := r.recoverState(tj, out); err != nil {
		return nil, err
	}
	return out, nil
}

// maxReplays caps the simulator replays: a job set of distinct goals
// chooses hundreds of distinct plans, and replaying them all would take
// as long as the job stage. The cap picks plans evenly across the set.
const maxReplays = 48

type simPlan struct {
	workload, typ      string
	workers, ps, iters int
}

// replaySims reruns distinct chosen plans in ddnnsim with the flow
// engine's counters exported, counting allocations around each run.
func replaySims(tj jobRound, out map[string]metric) error {
	var plans []simPlan
	seen := map[simPlan]bool{}
	for i := range tj.jobs {
		j := tj.jobs[i].resp
		p := simPlan{j.Workload, j.InstanceType, j.Workers, j.PS, j.Iterations}
		if j.ID != "" && !seen[p] {
			seen[p] = true
			plans = append(plans, p)
		}
	}
	if len(plans) > maxReplays {
		picked := make([]simPlan, maxReplays)
		for i := range picked {
			picked[i] = plans[i*len(plans)/maxReplays]
		}
		plans = picked
	}
	var allocs uint64
	var iters, steps, recomputes, affected float64
	for _, p := range plans {
		w, err := model.WorkloadByName(p.workload)
		if err != nil {
			return err
		}
		t, err := catalog.Lookup(p.typ)
		if err != nil {
			return err
		}
		reg := obs.NewRegistry()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := ddnnsim.Run(w, cloud.Homogeneous(t, p.workers, p.ps), ddnnsim.Options{
			Iterations: p.iters, LossEvery: max(p.iters/100, 1), Metrics: reg,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		allocs += after.Mallocs - before.Mallocs
		iters += float64(res.Iterations)
		steps += reg.Gauge("cynthia_sim_engine_steps_total", "").Value()
		recomputes += reg.Gauge("cynthia_sim_engine_alloc_recomputes_total", "").Value()
		affected += reg.Gauge("cynthia_sim_engine_alloc_affected_flows_total", "").Value()
	}
	out["ddnnsim.allocs_per_iter"] = metric{float64(allocs) / iters, "count"}
	out["flow.events_per_iter"] = metric{steps / iters, "count"}
	out["flow.recomputes_per_iter"] = metric{recomputes / iters, "count"}
	out["flow.affected_per_recompute"] = metric{affected / recomputes, "count"}
	return nil
}

// recoverState times replay.Open and the Attach+Rebuild of a fresh world
// on copies of the traced job master's final state dir, the work a
// restart does before it serves.
func (r *runner) recoverState(tj jobRound, out map[string]metric) error {
	payload, _, err := wal.LatestSnapshot(tj.stateDir)
	if err != nil {
		return err
	}
	out["replay.snapshot_kb"] = metric{float64(len(payload)) / 1024, "KiB"}
	var openMs, rebuildMs []float64
	records := 0
	for i := 0; i < 3; i++ {
		dir := r.freshPath("recover")
		if err := copyDir(dir, tj.stateDir); err != nil {
			return err
		}
		t0 := time.Now()
		mgr, err := replay.Open(dir, replay.Options{Mode: replay.ModeResume})
		if err != nil {
			return err
		}
		openMs = append(openMs, msSince(t0))
		records = len(mgr.RecoveredEvents())
		t1 := time.Now()
		err = rebuildWorld(mgr)
		rebuildMs = append(rebuildMs, msSince(t1))
		if cerr := mgr.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	out["replay.open_ms"] = metric{bench.Median(openMs), "ms"}
	out["replay.rebuild_ms"] = metric{bench.Median(rebuildMs), "ms"}
	out["replay.records"] = metric{float64(records), "count"}
	return nil
}

// rebuildWorld wires a fresh world to mgr as cmd/master does and
// rebuilds it from the recovered state.
func rebuildWorld(mgr *replay.Manager) error {
	master, err := cluster.NewMaster()
	if err != nil {
		return err
	}
	var clock cloud.Clock
	if snap := mgr.Snapshot(); snap != nil {
		clock = cloud.WallClockFrom(snap.Provider.ClockSec)
	}
	provider := cloud.NewProvider(cloud.DefaultCatalog(), clock)
	master.SetJournal(journal.New(journal.DefaultCapacity, journal.WithSink(mgr)), nil)
	provider.SetJournal(master.Journal())
	master.SetJournal(master.Journal(), provider.Now)
	controller := cluster.NewController(master, provider, nil, "")
	controller.Durability = mgr
	mgr.Attach(controller, master, provider, master.Journal())
	resume, queued, err := mgr.Rebuild()
	if err != nil {
		return err
	}
	if len(resume)+len(queued) > 0 {
		return fmt.Errorf("recovered state holds %d unfinished jobs", len(resume)+len(queued))
	}
	return nil
}

// sameOutputs lists where the traced pass answered differently from the
// untraced one: plans and costs of the quotes both asked, and every
// job's plan, cost, training time and status.
func sameOutputs(un, tr *measurement) []string {
	var diffs []string
	quotes := map[int]cluster.PlanResponse{}
	for _, set := range [][]quoteOut{un.quotes[0].closed, un.quotes[0].open} {
		for i := range set {
			if set[i].ok() {
				quotes[set[i].idx] = set[i].resp
			}
		}
	}
	for _, set := range [][]quoteOut{tr.quotes[0].closed, tr.quotes[0].open} {
		for i := range set {
			a, ok := quotes[set[i].idx]
			b := set[i].resp
			if !ok || !set[i].ok() {
				continue
			}
			if a.InstanceType != b.InstanceType || a.Workers != b.Workers || a.PS != b.PS || a.Iterations != b.Iterations ||
				a.PredTimeSec != b.PredTimeSec || a.CostUSD != b.CostUSD || a.Feasible != b.Feasible {
				diffs = append(diffs, fmt.Sprintf("quote %d: untraced %+v, traced %+v", set[i].idx, a, b))
			}
		}
	}
	for k := range un.jobs {
		for i, o := range un.jobs[k].jobs {
			if d := jobDiff(o.resp, tr.jobs[k].jobs[i].resp); d != "" {
				diffs = append(diffs, fmt.Sprintf("round %d job %d: untraced, then traced: %s", k+1, i, d))
			}
		}
	}
	return diffs
}

// writeChromeTrace writes the first traced round's span trees as a
// Chrome trace (the obs.Tracer format): one row per request, each span's
// trace, job, parent and self time in its args.
func writeChromeTrace(path string, tr *measurement) error {
	nodes := buildTree(tr.quotes[0], tr.jobs[0])
	if len(nodes) == 0 {
		return fmt.Errorf("traced pass recorded no spans")
	}
	t0 := nodes[0].Start
	for _, n := range nodes {
		t0 = min(t0, n.Start)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.WriteString("[\n"); err != nil {
		return err
	}
	for i, n := range nodes {
		args := map[string]any{"self_us": us(n.self)}
		if n.Trace != "" {
			args["trace"] = n.Trace
		}
		if n.Job != "" {
			args["job"] = n.Job
		}
		if n.parent >= 0 {
			args["parent"] = nodes[n.parent].Name
		}
		ev := obs.TraceEvent{Name: n.Name, Cat: n.layer(), Ph: "X", Ts: float64(n.Start-t0) / 1e3,
			Dur: float64(n.End-n.Start) / 1e3, Pid: 1, Tid: n.tid, Args: args}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(nodes)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(f, "%s%s", b, sep); err != nil {
			return err
		}
	}
	if _, err := f.WriteString("]\n"); err != nil {
		return err
	}
	return f.Close()
}

// copyDir copies the regular files of one flat directory.
func copyDir(dst, src string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
