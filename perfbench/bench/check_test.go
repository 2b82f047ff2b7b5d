package bench

import (
	"testing"

	"cynthia/internal/cluster"
)

func TestCheckQuoteFlagsAWrongQuote(t *testing.T) {
	ref, err := NewReference()
	if err != nil {
		t.Fatal(err)
	}
	q := HotQuestions()[0]
	want, err := ref.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	right := cluster.PlanResponse{
		Workload: q.Workload, InstanceType: want.Type.Name, Workers: want.Workers, PS: want.PS,
		Iterations: want.Iterations, PredTimeSec: want.PredTime, CostUSD: want.Cost, Feasible: want.Feasible,
	}
	if err := CheckQuote(right, want); err != nil {
		t.Fatalf("the reference plan itself was flagged: %v", err)
	}
	wrong := map[string]func(*cluster.PlanResponse){
		"one worker more": func(r *cluster.PlanResponse) { r.Workers++ },
		"another type":    func(r *cluster.PlanResponse) { r.InstanceType = "c4.xlarge" },
		"cheaper":         func(r *cluster.PlanResponse) { r.CostUSD *= 0.99 },
		"fewer iters":     func(r *cluster.PlanResponse) { r.Iterations-- },
		"not feasible":    func(r *cluster.PlanResponse) { r.Feasible = !r.Feasible },
	}
	for name, mutate := range wrong {
		got := right
		mutate(&got)
		if CheckQuote(got, want) == nil {
			t.Errorf("%s: wrong quote passed the check", name)
		}
	}
}

func TestCheckJobFlagsAWrongVerdict(t *testing.T) {
	ref, err := NewReference()
	if err != nil {
		t.Fatal(err)
	}
	q := Question{Workload: "mnist DNN", DeadlineSec: 1800, LossTarget: 0.2}
	want, err := ref.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	job := cluster.JobResponse{
		ID: "job-1", InstanceType: want.Type.Name, Workers: want.Workers, PS: want.PS,
		Iterations: want.Iterations, PredTimeSec: want.PredTime,
		TrainingSec: q.DeadlineSec * 0.9, Status: string(cluster.StatusSucceeded),
	}
	if err := CheckJob(job, q, want); err != nil {
		t.Fatalf("a correct job was flagged: %v", err)
	}
	late := job
	late.TrainingSec = q.DeadlineSec * 1.06 // beyond 1.05·Tg, yet reported succeeded
	if CheckJob(late, q, want) == nil {
		t.Error("a job past 1.05·Tg reported as succeeded passed the check")
	}
	replanned := job
	replanned.PS++
	if CheckJob(replanned, q, want) == nil {
		t.Error("a job on a plan other than the reference passed the check")
	}
}
