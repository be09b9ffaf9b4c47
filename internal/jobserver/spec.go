// Package jobserver is the multi-tenant job service: it runs many
// MapReduce jobs concurrently on one shared simulated cluster, with an
// admission queue, FIFO or weighted fair-share slot scheduling,
// per-job deadline SLOs, and streaming early-result snapshots whose
// confidence intervals narrow as waves complete.
//
// The package has three layers. JobSpec (this file) is the wire-level
// job description — a serializable recipe naming an application from
// the catalog plus approximation settings — from which a fresh
// mapreduce.Job (with its own generated input) is built per
// submission. Service (service.go) is the engine-goroutine core:
// admission, dispatch via mapreduce.Start, state tracking, and the
// deterministic Replay batch mode. Daemon/HTTP (daemon.go, http.go)
// wrap the Service for cmd/approxd: a driver goroutine owns the
// engine and processes submissions from a mailbox, so the virtual
// timeline itself never sees another goroutine.
package jobserver

import (
	"fmt"
	"sort"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/harness"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/workload"
)

// JobSpec is the serializable description of one service job. The
// zero values of optional fields select the defaults documented per
// field; Build validates the rest.
type JobSpec struct {
	// Name labels the job in results and logs (default "<app>-<seed>").
	Name string `json:"name,omitempty"`
	// App names a catalog application; see Apps.
	App string `json:"app"`
	// Blocks is the generated input size in blocks == map tasks
	// (default 48). LinesPerBlock scales each block (default 200).
	Blocks        int `json:"blocks,omitempty"`
	LinesPerBlock int `json:"linesPerBlock,omitempty"`
	// Seed drives input generation, task order, and sampling.
	Seed int64 `json:"seed,omitempty"`
	// Weight is the job's fair-share weight (default 1); FIFO ignores
	// it.
	Weight float64 `json:"weight,omitempty"`
	// SubmitAt is the job's virtual-time submission offset within a
	// replayed trace; live submissions ignore it.
	SubmitAt float64 `json:"submitAt,omitempty"`
	// IdempotencyKey, when non-empty, deduplicates submissions: the
	// first submission with a given key creates the job, and every
	// later one — including retries after a client timeout or a daemon
	// crash-and-restart, since keys are journaled with the spec —
	// returns the original job's id instead of running again.
	IdempotencyKey string `json:"idempotencyKey,omitempty"`
	// Tenant names the submitting tenant. A sharded daemon routes all
	// of a tenant's jobs to one engine shard (consistent hashing on
	// this field) and enforces the per-tenant admission quota against
	// it; empty means the anonymous tenant.
	Tenant string `json:"tenant,omitempty"`

	// Controller selects the approximation mode: "" or "precise",
	// "static" (SampleRatio/DropRatio), "target" (Target relative
	// error), or "deadline" (Deadline virtual seconds, BestEffort).
	Controller  string  `json:"controller,omitempty"`
	SampleRatio float64 `json:"sampleRatio,omitempty"`
	DropRatio   float64 `json:"dropRatio,omitempty"`
	Target      float64 `json:"target,omitempty"`
	Deadline    float64 `json:"deadline,omitempty"`
	BestEffort  bool    `json:"bestEffort,omitempty"`

	// Reduces is the job's reduce-task count (default 1 — service
	// jobs share the cluster's reduce slots, which bound admission).
	Reduces int `json:"reduces,omitempty"`
	// Workers overrides the service's compute-pool size for this job.
	Workers int `json:"workers,omitempty"`
}

// Apps lists the catalog applications a JobSpec may name.
func Apps() []string {
	return []string{"project-popularity", "page-popularity", "total-size", "clients", "wiki-length"}
}

// input generates the spec's private input file. Every submission gets
// a fresh dfs.File: service tenants do not share block objects, so one
// job's replica bookkeeping can never leak into another's schedule.
func (s JobSpec) input() (*dfs.File, error) {
	blocks := s.Blocks
	if blocks <= 0 {
		blocks = 48
	}
	lines := s.LinesPerBlock
	if lines <= 0 {
		lines = 200
	}
	name := fmt.Sprintf("%s-%d.in", s.App, s.Seed)
	switch s.App {
	case "project-popularity", "page-popularity":
		log := workload.AccessLog{Blocks: blocks, LinesPerBlock: lines, Projects: 50, Pages: 2000, Seed: s.Seed + 2}
		return log.File(name), nil
	case "total-size", "clients":
		log := workload.WebLog{Blocks: blocks, LinesPerBlock: lines, Clients: 200, Attackers: 8, AttackRate: 0.02, Seed: s.Seed + 3}
		return log.File(name), nil
	case "wiki-length":
		dump := workload.WikiDump{Blocks: blocks, ArticlesPerBlock: lines, LinkUniverse: 2000, MeanLinks: 8, Seed: s.Seed + 1}
		return dump.File(name), nil
	}
	return nil, fmt.Errorf("jobserver: unknown app %q (have %v)", s.App, Apps())
}

// controller builds a fresh controller instance for this submission
// (controllers are stateful and never shared between jobs).
func (s JobSpec) controller() (mapreduce.Controller, error) {
	switch s.Controller {
	case "", "precise":
		return nil, nil
	case "static":
		return approx.NewStatic(s.SampleRatio, s.DropRatio), nil
	case "target":
		if s.Target <= 0 {
			return nil, fmt.Errorf("jobserver: controller \"target\" requires target > 0")
		}
		return &approx.TargetError{Target: s.Target, Pilot: true}, nil
	case "deadline":
		if s.Deadline <= 0 {
			return nil, fmt.Errorf("jobserver: controller \"deadline\" requires deadline > 0")
		}
		return &approx.DeadlineSLO{Deadline: s.Deadline, BestEffort: s.BestEffort}, nil
	}
	return nil, fmt.Errorf("jobserver: unknown controller %q (precise, static, target, deadline)", s.Controller)
}

// Build assembles the runnable mapreduce.Job this spec describes.
// defaultWorkers is the service-wide compute-pool size applied when
// the spec does not override it.
func (s JobSpec) Build(defaultWorkers int) (*mapreduce.Job, error) {
	input, err := s.input()
	if err != nil {
		return nil, err
	}
	ctl, err := s.controller()
	if err != nil {
		return nil, err
	}
	reduces := s.Reduces
	if reduces <= 0 {
		reduces = 1
	}
	// Paper-scale analytic costs: map waves take seconds, not the
	// microseconds of the metered default, so trace submission gaps,
	// streaming snapshot periods, and deadline SLOs all live in natural
	// units — and concurrently submitted jobs genuinely overlap.
	opts := apps.Options{Controller: ctl, Seed: s.Seed, Reduces: reduces, Cost: harness.PaperCost()}
	var job *mapreduce.Job
	switch s.App {
	case "project-popularity":
		job = apps.ProjectPopularity(input, opts)
	case "page-popularity":
		job = apps.PagePopularity(input, opts)
	case "total-size":
		job = apps.TotalSize(input, opts)
	case "clients":
		job = apps.Clients(input, opts)
	case "wiki-length":
		job = apps.WikiLength(input, opts)
	default:
		return nil, fmt.Errorf("jobserver: unknown app %q (have %v)", s.App, Apps())
	}
	if s.Name != "" {
		job.Name = s.Name
	} else {
		job.Name = fmt.Sprintf("%s-%d", s.App, s.Seed)
	}
	job.Workers = s.Workers
	if job.Workers == 0 {
		job.Workers = defaultWorkers
	}
	if s.Controller == "deadline" {
		// The controller plans toward Slack*Deadline; the framework's
		// map-phase deadline is the hard stop if the plan mispredicts.
		// Strict SLO jobs fail with a descriptive error on overrun;
		// best-effort jobs degrade the unfinished tail to
		// statistically-bounded drops instead.
		job.Retry.JobDeadline = s.Deadline
		job.DegradeToDrop = s.BestEffort
	}
	return job, nil
}

// PlacementKey is the consistent-hash routing key a sharded daemon
// places this spec with. Tenant wins when set, so a tenant's jobs
// share a shard (quota enforcement and cross-job locality); otherwise
// the idempotency key, so blind retries of a keyed submission land on
// the shard that already owns the original; otherwise the job name;
// otherwise a stable app+seed composite. Every fallback is derived
// from the spec alone, so a resubmitted spec always routes the same.
func (s JobSpec) PlacementKey() string {
	if s.Tenant != "" {
		return s.Tenant
	}
	if s.IdempotencyKey != "" {
		return s.IdempotencyKey
	}
	if s.Name != "" {
		return s.Name
	}
	return fmt.Sprintf("%s-%d", s.App, s.Seed)
}

// LoadSpec is the op'th job of the closed-loop load generator's mix
// (internal/loadgen): small (so the loop turns over quickly),
// deterministic in (seed, op), and tenant-labeled so a sharded daemon
// spreads the load by placement key.
func LoadSpec(seed int64, op, tenants int) JobSpec {
	if tenants <= 0 {
		tenants = 8
	}
	apps := Apps()
	spec := JobSpec{
		Name:          fmt.Sprintf("load-%04d", op),
		App:           apps[op%len(apps)],
		Blocks:        12,
		LinesPerBlock: 80,
		Seed:          seed*1009 + int64(op),
		Tenant:        fmt.Sprintf("tenant-%02d", op%tenants),
		Controller:    "static",
		SampleRatio:   0.25,
	}
	return spec
}

// GenerateTrace builds a seeded submission trace of n jobs: a
// deterministic mix of catalog apps, weights, approximation modes, and
// staggered virtual submission times. The same (n, seed) always yields
// the same trace, which is what the byte-identical replay tests and
// the approxctl load generator run.
//
// Traces use only precise and static controllers: their per-job
// outputs depend only on (spec, seed) — drops are the tail of the
// job's own seeded launch order — so replay results are comparable
// across scheduling policies, not just across worker-pool sizes.
func GenerateTrace(n int, seed int64) []JobSpec {
	rng := stats.NewRand(seed)
	catalog := Apps()
	specs := make([]JobSpec, 0, n)
	at := 0.0
	for i := 0; i < n; i++ {
		app := catalog[rng.Intn(len(catalog))]
		spec := JobSpec{
			Name:          fmt.Sprintf("%s-%03d", app, i),
			App:           app,
			Blocks:        32 + 16*rng.Intn(3),
			LinesPerBlock: 150,
			Seed:          seed*7919 + int64(i),
			Weight:        float64(1 + rng.Intn(3)),
			SubmitAt:      at,
		}
		switch rng.Intn(3) {
		case 0: // precise
		case 1:
			spec.Controller = "static"
			spec.SampleRatio = []float64{0.1, 0.25, 0.5}[rng.Intn(3)]
		case 2:
			spec.Controller = "static"
			spec.SampleRatio = 0.25
			spec.DropRatio = []float64{0.25, 0.5}[rng.Intn(2)]
		}
		at += rng.Float64() * 40
		specs = append(specs, spec)
	}
	return specs
}

// SortTrace orders specs for deterministic replay: by SubmitAt, then
// Name, then original position. Replay applies it so a trace submitted
// out of order (e.g. gathered over concurrent HTTP requests in hold
// mode) still admits jobs in a reproducible sequence.
func SortTrace(specs []JobSpec) []JobSpec {
	out := append([]JobSpec(nil), specs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].SubmitAt < out[j].SubmitAt {
			return true
		}
		if out[j].SubmitAt < out[i].SubmitAt {
			return false
		}
		return out[i].Name < out[j].Name
	})
	return out
}
