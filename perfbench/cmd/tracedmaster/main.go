// Command tracedmaster serves the same control plane as cmd/master, wired
// the same way, with timing wrappers at the master's public seams: the
// HTTP handler, plan.Provisioner, perf.Predictor, cluster.Checkpointer
// and the journal's sink. It keeps every span in memory and, when it is
// stopped with SIGTERM, drains like cmd/master and then writes the spans
// and its Go runtime totals as JSON to -out.
//
// Usage:
//
//	tracedmaster -addr 127.0.0.1:8080 -out spans.json [-state-dir dir]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/cluster/replay"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
	"cynthia/perfbench/bench"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "listen address")
		out      = flag.String("out", "", "file the spans and runtime totals are written to on exit")
		stateDir = flag.String("state-dir", "", "durable state directory, as for cmd/master")
	)
	flag.Parse()
	if err := run(*addr, *out, *stateDir); err != nil {
		fmt.Fprintln(os.Stderr, "tracedmaster:", err)
		os.Exit(1)
	}
}

func now() int64 { return time.Now().UnixNano() }

// handlerSpy times the two POST routes a benchmark drives.
func handlerSpy(rec *bench.Recorder, next http.Handler) http.Handler {
	names := map[string]string{"/api/plan": "api.plan", "/api/jobs": "api.job"}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name, ok := names[r.URL.Path]
		if !ok || r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		start := now()
		next.ServeHTTP(w, r)
		rec.Add(bench.Span{Name: name, Trace: r.Header.Get("X-Trace-ID"), Start: start, End: now()})
	})
}

// provisionerSpy times every search. It forwards Search so that
// plan.SearchWith still runs one exhaustive pass, as it does unwrapped.
type provisionerSpy struct {
	rec   *bench.Recorder
	inner *plan.Engine
}

func (p provisionerSpy) span(req plan.Request, start int64, st plan.SearchStats) {
	p.rec.Add(bench.Span{Name: "plan.search", Trace: req.Journal.Trace, Job: req.Journal.Job,
		Start: start, End: now(), Enumerated: st.Enumerated, Feasible: st.Feasible})
}

func (p provisionerSpy) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	start := now()
	res, err := p.inner.Search(ctx, req)
	p.span(req, start, res.Stats)
	return res, err
}

func (p provisionerSpy) Provision(ctx context.Context, req plan.Request) (plan.Plan, error) {
	start := now()
	pl, err := p.inner.Provision(ctx, req)
	p.span(req, start, plan.SearchStats{})
	return pl, err
}

func (p provisionerSpy) Candidates(ctx context.Context, req plan.Request) ([]plan.Plan, error) {
	start := now()
	ps, err := p.inner.Candidates(ctx, req)
	p.span(req, start, plan.SearchStats{})
	return ps, err
}

// predictorSpy counts model evaluations; a span per call would cost more
// than the call.
type predictorSpy struct {
	inner perf.Predictor
	calls *atomic.Int64
}

func (p predictorSpy) Name() string { return p.inner.Name() }

func (p predictorSpy) IterTime(prof *perf.Profile, c cloud.ClusterSpec) (float64, error) {
	p.calls.Add(1)
	return p.inner.IterTime(prof, c)
}

func (p predictorSpy) TrainingTime(prof *perf.Profile, c cloud.ClusterSpec, iters int) (float64, error) {
	p.calls.Add(1)
	return p.inner.TrainingTime(prof, c, iters)
}

// checkpointSpy times each durability barrier, named by its phase.
type checkpointSpy struct {
	rec   *bench.Recorder
	inner cluster.Checkpointer
}

func (c checkpointSpy) Barrier(jobID string, phase cluster.Phase) error {
	start := now()
	err := c.inner.Barrier(jobID, phase)
	c.rec.Add(bench.Span{Name: "replay.barrier." + string(phase), Job: jobID, Start: start, End: now()})
	return err
}

// sinkSpy times each journal record written ahead to the WAL.
type sinkSpy struct {
	rec   *bench.Recorder
	inner io.Writer
}

func (s sinkSpy) Write(p []byte) (int, error) {
	start := now()
	n, err := s.inner.Write(p)
	s.rec.Add(bench.Span{Name: "wal.append", Trace: bench.LineTrace(p), Start: start, End: now(), Bytes: len(p)})
	return n, err
}

// setup is cmd/master's setup with the spies in place.
func setup(rec *bench.Recorder, calls *atomic.Int64, stateDir string) (http.Handler, *cluster.API, *replay.Manager, error) {
	master, err := cluster.NewMaster()
	if err != nil {
		return nil, nil, nil, err
	}
	catalog := cloud.DefaultCatalog()
	var (
		mgr   *replay.Manager
		clock cloud.Clock
	)
	if stateDir != "" {
		mgr, err = replay.Open(stateDir, replay.Options{Mode: replay.ModeResume})
		if err != nil {
			return nil, nil, nil, err
		}
		if snap := mgr.Snapshot(); snap != nil {
			clock = cloud.WallClockFrom(snap.Provider.ClockSec)
		}
	}
	provider := cloud.NewProvider(catalog, clock)
	if mgr != nil {
		master.SetJournal(journal.New(journal.DefaultCapacity, journal.WithSink(sinkSpy{rec, mgr})), nil)
	}
	provider.SetJournal(master.Journal())
	master.SetJournal(master.Journal(), provider.Now)
	controller := cluster.NewController(master, provider, predictorSpy{perf.Cynthia{}, calls}, "")
	prov := provisionerSpy{rec, plan.DefaultEngine}
	controller.UseProvisioner(prov)
	if mgr != nil {
		controller.Durability = checkpointSpy{rec, mgr}
		mgr.Attach(controller, master, provider, master.Journal())
		resume, queued, err := mgr.Rebuild()
		if err != nil {
			mgr.Close()
			return nil, nil, nil, err
		}
		for _, id := range queued {
			if err := controller.Requeue(id); err != nil {
				obs.Debugf("tracedmaster: requeue %s after restart: %v", id, err)
			}
		}
		for _, id := range resume {
			id := id
			go func() { _, _ = controller.ResumeJob(id) }()
		}
	}
	svc := service.New(service.Config{Provisioner: prov, Catalog: provider.Catalog()})
	api := cluster.NewAPI(master, controller, cluster.WithPlanService(svc))
	return handlerSpy(rec, api.Handler()), api, mgr, nil
}

func run(addr, out, stateDir string) error {
	rec := &bench.Recorder{}
	var calls atomic.Int64
	heap := startHeapSampler()
	handler, api, mgr, err := setup(rec, &calls, stateDir)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	srv := &http.Server{Addr: addr, Handler: handler}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := api.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if mgr != nil {
		if err := mgr.SnapshotNow(); err != nil {
			fmt.Fprintln(os.Stderr, "tracedmaster: final snapshot:", err)
		}
		if err := mgr.Close(); err != nil {
			return fmt.Errorf("closing state dir: %w", err)
		}
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	dump := bench.TraceDump{Spans: rec.Spans(), PredictorCalls: calls.Load(), Runtime: runtimeStats(heap.stop())}
	data, err := json.Marshal(dump)
	if err != nil {
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// heapSampler tracks the peak of live heap objects, which
// runtime/metrics reports only as a current value.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}

func runtimeStats(heapPeak uint64) bench.RuntimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return bench.RuntimeStats{
		GCCPUSec:      s[0].Value.Float64(),
		BusyCPUSec:    s[1].Value.Float64() - s[2].Value.Float64(),
		AllocObjects:  s[3].Value.Uint64(),
		HeapPeakBytes: heapPeak,
	}
}
