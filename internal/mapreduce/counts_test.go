package mapreduce

import (
	"testing"

	"approxhadoop/internal/cluster"
)

// assertCounts checks the tracker's incremental bookkeeping against a
// full rescan: the per-state task counts setState maintains and the
// running Items sum behind JobView.AvgItems. A state write that bypasses
// setState fails here instead of silently stalling a job.
func assertCounts(tb testing.TB, tr *tracker, step int) {
	tb.Helper()
	var want [numTaskStates]int
	for _, st := range tr.state {
		want[st]++
	}
	if want != tr.nState {
		tb.Fatalf("step %d: per-state counts %v, rescan %v", step, tr.nState, want)
	}
	var items int64
	for _, m := range tr.measures {
		items += m.Items
	}
	if items != tr.itemsSum {
		tb.Fatalf("step %d: items sum %d, rescan %d", step, tr.itemsSum, items)
	}
}

// driveChecked pumps the engine one event at a time, running
// assertCounts after every event. onStep, when set, runs before each
// event (tests use it to cancel a job mid-flight).
func driveChecked(tb testing.TB, eng *cluster.Engine, h *Handle, onStep func(step int)) (*Result, error) {
	tb.Helper()
	assertCounts(tb, h.t, -1)
	for step := 0; ; step++ {
		if onStep != nil {
			onStep(step)
		}
		if !eng.Step() {
			break
		}
		assertCounts(tb, h.t, step)
	}
	eng.Run() // no events remain; settles energy accrual exactly as Run does
	if h.Done() && h.t.failErr == nil && (h.t.nState[taskPending] != 0 || h.t.nState[taskRunning] != 0) {
		tb.Fatalf("job completed with counts %v", h.t.nState)
	}
	return h.Outcome()
}

// runChecked is Run with the count invariant asserted after every
// engine event.
func runChecked(tb testing.TB, eng *cluster.Engine, job *Job) (*Result, error) {
	tb.Helper()
	h, err := Start(eng, job, StartOptions{})
	if err != nil {
		return nil, err
	}
	return driveChecked(tb, eng, h, nil)
}

// TestTransitionCountsMatchRescan drives every state transition the
// tracker has — launch, completion, speculation, controller drops and
// kills, MaxLaunch, deadline cut-off, retry exhaustion degraded to a
// drop, cancellation and S3 sleeping — and checks the incremental
// counts after every event. The chaos tests run the same check over
// their fault-plan seed matrix.
func TestTransitionCountsMatchRescan(t *testing.T) {
	input, _ := wordCountInput(t, 64)
	wc := func() *Job {
		return &Job{
			Input:     input,
			NewMapper: wordCountMapper,
			NewReduce: func(int) ReduceLogic { return SumReduce() },
			Cost:      cluster.AnalyticCost{T0: 1, Tr: 0.001, Tp: 0.001},
			Seed:      3,
		}
	}
	narrow := func(straggle float64) *cluster.Engine {
		cfg := cluster.DefaultConfig()
		cfg.Servers = 2
		cfg.MapSlotsPerServer = 2
		cfg.StragglerProb = straggle
		cfg.StragglerFactor = 50
		return cluster.New(cfg)
	}

	t.Run("speculation", func(t *testing.T) {
		job := wc()
		job.Speculation = true
		res, err := runChecked(t, narrow(0.3), job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.MapsSpeculated == 0 {
			t.Error("expected speculative attempts")
		}
	})
	t.Run("deadline-degrade", func(t *testing.T) {
		cfg := cluster.DefaultConfig()
		cfg.Servers = 2
		cfg.MapSlotsPerServer = 1
		res, err := runChecked(t, cluster.New(cfg), faultJob(input, RetryPolicy{JobDeadline: 5}, true))
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.MapsDegraded == 0 {
			t.Error("deadline should have cut off unfinished maps")
		}
	})
	t.Run("exhausted-retries-degrade", func(t *testing.T) {
		var faults []cluster.Fault
		for i := 0; i < 6; i++ {
			faults = append(faults, cluster.Fault{At: 0.5 + 0.3*float64(i), Kind: cluster.FaultTask, Server: i % 4})
		}
		job := faultJob(input, RetryPolicy{MaxAttemptsPerTask: 1}, true)
		job.Faults = &cluster.FaultPlan{Faults: faults}
		res, err := runChecked(t, testEngine(), job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.MapsDegraded == 0 {
			t.Error("expected degraded tasks")
		}
	})
	t.Run("kill-running", func(t *testing.T) {
		job := wc()
		job.Controller = &killController{}
		res, err := runChecked(t, testEngine(), job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counters.MapsKilled == 0 {
			t.Error("expected kills")
		}
	})
	t.Run("max-launch", func(t *testing.T) {
		job := wc()
		job.Controller = &maxLaunchController{cap: 3}
		if _, err := runChecked(t, testEngine(), job); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sleep-idle", func(t *testing.T) {
		job := wc()
		job.SleepIdle = true
		if _, err := runChecked(t, narrow(0), job); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		eng := narrow(0)
		h, err := Start(eng, wc(), StartOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = driveChecked(t, eng, h, func(step int) {
			if step == 20 {
				h.Cancel()
			}
		})
		if err == nil {
			t.Fatal("canceled job reported success")
		}
	})
}
