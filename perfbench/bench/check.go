package bench

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
	"cynthia/internal/profile"
)

// DeadlineSlack is the paper's predictability promise: a job succeeds
// when it trains within 1.05·Tg.
const DeadlineSlack = 1.05

// Reference answers planning questions the way the master must: each
// workload profiled once on m4.xlarge, then plan.SearchWith on
// cloud.DefaultCatalog. It is safe for concurrent use.
type Reference struct {
	catalog  *cloud.Catalog
	profiles map[string]*perf.Profile
	engine   *plan.Engine

	mu    sync.Mutex
	plans map[Question]plan.Plan
}

// NewReference profiles every Table 1 workload.
func NewReference() (*Reference, error) {
	cat := cloud.DefaultCatalog()
	base, err := cat.Lookup(cloud.M4XLarge)
	if err != nil {
		return nil, err
	}
	r := &Reference{
		catalog:  cat,
		profiles: make(map[string]*perf.Profile),
		// One goroutine per search: Prefetch runs searches side by side.
		engine: &plan.Engine{Parallelism: 1},
		plans:  make(map[Question]plan.Plan),
	}
	for _, w := range model.Workloads() {
		rep, err := profile.Run(w, base, 0)
		if err != nil {
			return nil, err
		}
		r.profiles[w.Name] = rep.Profile
	}
	return r, nil
}

// Catalog returns the catalog the reference plans on.
func (r *Reference) Catalog() *cloud.Catalog { return r.catalog }

// Request returns the planning request the master builds for q.
func (r *Reference) Request(q Question) (plan.Request, error) {
	prof, ok := r.profiles[q.Workload]
	if !ok {
		return plan.Request{}, fmt.Errorf("unknown workload %q", q.Workload)
	}
	return plan.Request{
		Profile:   prof,
		Goal:      plan.Goal{TimeSec: q.DeadlineSec, LossTarget: q.LossTarget},
		Predictor: perf.Cynthia{},
		Catalog:   r.catalog,
	}, nil
}

// Plan returns the reference plan for q.
func (r *Reference) Plan(q Question) (plan.Plan, error) {
	r.mu.Lock()
	p, ok := r.plans[q]
	r.mu.Unlock()
	if ok {
		return p, nil
	}
	req, err := r.Request(q)
	if err != nil {
		return plan.Plan{}, err
	}
	res, err := plan.SearchWith(context.Background(), r.engine, req)
	if err != nil {
		return plan.Plan{}, fmt.Errorf("reference plan for %+v: %w", q, err)
	}
	r.mu.Lock()
	r.plans[q] = res.Plan
	r.mu.Unlock()
	return res.Plan, nil
}

// Prefetch computes the reference plans of qs on workers goroutines.
func (r *Reference) Prefetch(qs []Question, workers int) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(qs); i = int(next.Add(1)) - 1 {
				if _, err := r.Plan(qs[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// CheckQuote reports how a quote differs from the reference plan: type,
// workers, PS, iterations, predicted time, cost and feasibility must all
// be identical.
func CheckQuote(got cluster.PlanResponse, want plan.Plan) error {
	if got.InstanceType != want.Type.Name || got.Workers != want.Workers || got.PS != want.PS ||
		got.Iterations != want.Iterations || got.PredTimeSec != want.PredTime ||
		got.CostUSD != want.Cost || got.Feasible != want.Feasible {
		return fmt.Errorf("quote %s %dw/%dps %d iters %.6gs $%.6g feasible=%v, reference %s %dw/%dps %d iters %.6gs $%.6g feasible=%v",
			got.InstanceType, got.Workers, got.PS, got.Iterations, got.PredTimeSec, got.CostUSD, got.Feasible,
			want.Type.Name, want.Workers, want.PS, want.Iterations, want.PredTime, want.Cost, want.Feasible)
	}
	return nil
}

// CheckJob reports how a finished job differs from what the master must
// produce: the reference plan (type, workers, PS, iterations, predicted
// time), and a terminal status that agrees with the job's own training
// time: succeeded within 1.05·Tg, missed-goal beyond it.
func CheckJob(got cluster.JobResponse, q Question, want plan.Plan) error {
	if got.InstanceType != want.Type.Name || got.Workers != want.Workers || got.PS != want.PS ||
		got.Iterations != want.Iterations || got.PredTimeSec != want.PredTime {
		return fmt.Errorf("job %s planned %s %dw/%dps %d iters %.6gs, reference %s %dw/%dps %d iters %.6gs",
			got.ID, got.InstanceType, got.Workers, got.PS, got.Iterations, got.PredTimeSec,
			want.Type.Name, want.Workers, want.PS, want.Iterations, want.PredTime)
	}
	wantStatus := string(cluster.StatusSucceeded)
	if got.TrainingSec > q.DeadlineSec*DeadlineSlack {
		wantStatus = string(cluster.StatusMissedGoal)
	}
	if got.Status != wantStatus {
		return fmt.Errorf("job %s ended %s after %.6gs against a %.6gs goal, want %s",
			got.ID, got.Status, got.TrainingSec, q.DeadlineSec, wantStatus)
	}
	return nil
}
