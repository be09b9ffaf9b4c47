package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"approxhadoop/internal/approx"
	"approxhadoop/internal/apps"
	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/workload"
)

// The batch workloads drive the apps/workload builders and
// mapreduce.Run only: one job at a time on a fresh engine, Workers =
// nproc.

// paperCost is the analytic task-cost model the paper-scale
// experiments and the job service use (map waves of seconds).
var paperCost = cluster.AnalyticCost{T0: 1.5, Tr: 0.006, Tp: 0.024, RedPerK: 0.02}

// batchJob is one job of a workload round.
type batchJob struct {
	label string
	ref   string // reference the outputs are checked against
	exact bool   // outputs must equal the reference exactly
	build func(in *dfs.File, seed int64) *mapreduce.Job
}

// batchPlan is a batch workload: a cluster, an input generated from
// the seed, references computed in set-up, and the round of jobs
// repeated (with fresh job seeds) until the time budget is spent.
type batchPlan struct {
	cluster cluster.Config
	input   func(seed int64) *dfs.File
	refs    map[string]func(in *dfs.File) *mapreduce.Job
	round   []batchJob
	// check, when set, is an independent recount of the input that the
	// precise references must equal.
	check func(in *dfs.File, refs map[string]map[string]float64) error
}

func aggJob(build func(*dfs.File, apps.Options) *mapreduce.Job, ctl func() mapreduce.Controller) func(*dfs.File, int64) *mapreduce.Job {
	return func(in *dfs.File, seed int64) *mapreduce.Job {
		var c mapreduce.Controller
		if ctl != nil {
			c = ctl()
		}
		return build(in, apps.Options{Controller: c, Cost: paperCost, Seed: seed})
	}
}

func topPages(sketch bool, sample float64) func(*dfs.File, int64) *mapreduce.Job {
	return func(in *dfs.File, seed int64) *mapreduce.Job {
		var c mapreduce.Controller
		if sample > 0 {
			c = approx.NewStatic(sample, 0)
		}
		return apps.WikiTopPages(in, apps.SketchOptions{
			Options: apps.Options{Controller: c, Cost: paperCost, Seed: seed},
			Sketch:  sketch,
		})
	}
}

func precise(build func(*dfs.File, apps.Options) *mapreduce.Job) func(*dfs.File) *mapreduce.Job {
	return func(in *dfs.File) *mapreduce.Job {
		return build(in, apps.Options{Cost: paperCost, Seed: 1})
	}
}

// sweepPlan: the generated Wikipedia access log (740 blocks × 200
// lines) on the paper's Xeon cluster; {ProjectPopularity,
// PagePopularity} × sample {1, 0.25, 0.05} × drop {0, 0.5}, plus
// WikiTopPages under a Count-Min sketch plan at sample {1, 0.25}.
func sweepPlan(smoke bool) *batchPlan {
	blocks, lines := 740, 200
	if smoke {
		blocks, lines = 40, 40
	}
	p := &batchPlan{
		cluster: cluster.DefaultConfig(),
		input: func(seed int64) *dfs.File {
			return workload.AccessLog{Blocks: blocks, LinesPerBlock: lines, Projects: 400, Pages: 20000, Seed: seed}.File("sweep.log")
		},
		refs: map[string]func(*dfs.File) *mapreduce.Job{
			"proj": precise(apps.ProjectPopularity),
			"page": precise(apps.PagePopularity),
			"top":  func(in *dfs.File) *mapreduce.Job { return topPages(false, 0)(in, 1) },
		},
		check: recountAccessLog,
	}
	for _, app := range []struct {
		ref   string
		build func(*dfs.File, apps.Options) *mapreduce.Job
	}{{"proj", apps.ProjectPopularity}, {"page", apps.PagePopularity}} {
		for si, s := range []float64{1, 0.25, 0.05} {
			for di, d := range []float64{0, 0.5} {
				s, d := s, d
				p.round = append(p.round, batchJob{
					label: fmt.Sprintf("%s/s%g/d%g", app.ref, s, d),
					ref:   app.ref,
					exact: si == 0 && di == 0, // sample 1, drop 0
					build: aggJob(app.build, func() mapreduce.Controller { return approx.NewStatic(s, d) }),
				})
			}
		}
	}
	for _, s := range []float64{1, 0.25} {
		p.round = append(p.round, batchJob{label: fmt.Sprintf("top/cms/s%g", s), ref: "top", build: topPages(true, s)})
	}
	return p
}

// scalePlan: Fig 13's one-year point, ScaledAccessLog(365, 18, 100) =
// 6,570 maps on the 60-node Atom cluster; ProjectPopularity and
// PagePopularity (1% pilot) at a 1% target error.
func scalePlan(smoke bool) *batchPlan {
	days, perDay, lines := 365, 18, 100
	if smoke {
		days, perDay, lines = 10, 6, 30
	}
	return &batchPlan{
		cluster: cluster.AtomConfig(),
		input: func(seed int64) *dfs.File {
			return workload.ScaledAccessLog(days, perDay, lines, seed).File("scale.log")
		},
		refs: map[string]func(*dfs.File) *mapreduce.Job{
			"proj": precise(apps.ProjectPopularity),
			"page": precise(apps.PagePopularity),
		},
		round: []batchJob{
			{label: "proj/target1%", ref: "proj", build: aggJob(apps.ProjectPopularity,
				func() mapreduce.Controller { return &approx.TargetError{Target: 0.01} })},
			{label: "page/target1%/pilot", ref: "page", build: aggJob(apps.PagePopularity,
				func() mapreduce.Controller { return &approx.TargetError{Target: 0.01, Pilot: true, PilotRatio: 0.01} })},
		},
	}
}

func runSweep(cfg *config) (*report, error) { return runBatch(cfg, sweepPlan(cfg.smoke)) }
func runScale(cfg *config) (*report, error) { return runBatch(cfg, scalePlan(cfg.smoke)) }

// batchState is what set-up produces: the input and the references.
type batchState struct {
	input *dfs.File
	refs  map[string]map[string]float64
}

func (p *batchPlan) setup(seed int64, workers int) (*batchState, error) {
	st := &batchState{input: p.input(seed), refs: map[string]map[string]float64{}}
	names := make([]string, 0, len(p.refs))
	for name := range p.refs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		job := p.refs[name](st.input)
		job.Workers = workers
		res, err := mapreduce.Run(cluster.New(p.cluster), job)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		m := make(map[string]float64, len(res.Outputs))
		for _, o := range res.Outputs {
			if !o.Exact {
				return nil, fmt.Errorf("reference %s: key %q not exact", name, o.Key)
			}
			m[o.Key] = o.Est.Value
		}
		st.refs[name] = m
	}
	return st, nil
}

// jobSeed gives job j of round r its own task-order/sampling seed.
func jobSeed(runSeed int64, r, j int) int64 {
	return runSeed*1_000_003 + int64(r)*7919 + int64(j) + 1
}

// digest is a canonical hash of a job's outputs and task counters.
func digest(res *mapreduce.Result) [32]byte {
	h := sha256.New()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		//lint:ignore errcheck hash.Hash documents that Write never returns an error
		h.Write(b[:])
	}
	for _, o := range res.Outputs {
		//lint:ignore errcheck hash.Hash documents that Write never returns an error
		h.Write([]byte(o.Key))
		put(math.Float64bits(o.Est.Value))
		put(math.Float64bits(o.Est.Err))
		if o.Exact {
			put(1)
		} else {
			put(0)
		}
	}
	c := res.Counters
	for _, x := range []int{c.MapsCompleted, c.MapsDropped, c.MapsKilled, c.Waves} {
		put(uint64(x))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// phase is the outcome of running whole rounds of a batch plan.
type phase struct {
	rounds  int
	jobs    int
	wallNs  int64
	blocks  []*block // one per round: Run wall times by job label
	digests [][32]byte
	acc     accuracy
	cpuNs   int64
	before  procSample
	after   procSample
}

// runRounds runs whole rounds until budgetNs has elapsed (or exactly
// fixedRounds rounds when positive), with tracing when probe != nil.
func (p *batchPlan) runRounds(cfg *config, st *batchState, rep *report, budgetNs int64, fixedRounds int, probe *batchProbe) *phase {
	ph := &phase{}
	ph.before = sampleSelf()
	start := nowNs()
	for r := 0; ; r++ {
		if fixedRounds > 0 && r == fixedRounds || fixedRounds <= 0 && r > 0 && nowNs()-start >= budgetNs {
			break
		}
		blk := newBlock(nowNs())
		for j, bj := range p.round {
			job := bj.build(st.input, jobSeed(cfg.seed, r, j))
			job.Workers = cfg.workers
			var jp *jobProbe
			if probe != nil {
				jp = probe.install(job)
			}
			eng := cluster.New(p.cluster)
			rep.attempted++
			t0 := nowNs()
			res, err := mapreduce.Run(eng, job)
			t1 := nowNs()
			if err != nil {
				rep.failed++
				rep.gate(false, "%s round %d: %v", bj.label, r, err)
				continue
			}
			blk.lat[bj.label] = append(blk.lat[bj.label], float64(t1-t0)/1e6)
			blk.ops++
			ph.digests = append(ph.digests, digest(res))
			ph.jobs++
			ref := st.refs[bj.ref]
			missed := 0
			if bj.exact {
				rep.gate(equalsRef(res, ref), "%s round %d: outputs differ from the precise reference", bj.label, r)
			} else {
				missed = ph.acc.addJob(bj.label, batchEstimates(res), ref)
			}
			if jp != nil {
				probe.finish(jp, res, t0, t1, missed)
			}
		}
		ph.rounds++
		blk.end = nowNs()
		ph.blocks = append(ph.blocks, blk)
	}
	ph.wallNs = nowNs() - start
	ph.after = sampleSelf()
	ph.cpuNs = ph.after.cpuNs - ph.before.cpuNs
	return ph
}

// batchEstimates converts a job's outputs for scoring.
func batchEstimates(res *mapreduce.Result) []estimate {
	out := make([]estimate, len(res.Outputs))
	for i, o := range res.Outputs {
		out[i] = estimate{key: o.Key, value: o.Est.Value, halfWidth: o.Est.Err, exact: o.Exact,
			bounded: !math.IsNaN(o.Est.Err) && !math.IsInf(o.Est.Err, 0)}
	}
	return out
}

// equalsRef reports whether res holds exactly the reference's keys
// and values.
func equalsRef(res *mapreduce.Result, ref map[string]float64) bool {
	if len(res.Outputs) != len(ref) {
		return false
	}
	for _, o := range res.Outputs {
		//lint:ignore nofloateq exact jobs must reproduce the reference counts bit for bit
		if v, ok := ref[o.Key]; !ok || v != o.Est.Value {
			return false
		}
	}
	return true
}

func runBatch(cfg *config, p *batchPlan) (*report, error) {
	rep := newReport()
	setup := func() (*batchState, error) { return p.setup(cfg.seed, cfg.workers) }
	// The independent recount is the benchmark's own work, so it runs
	// once, outside the timed set-up.
	recount := func(st *batchState) {
		if p.check != nil {
			if err := p.check(st.input, st.refs); err != nil {
				rep.gate(false, "independent recount: %v", err)
			}
		}
	}
	budget := int64(cfg.seconds * 1e9)
	if !cfg.trace {
		st, err := timeSetups(cfg, rep, setup, nil)
		if err != nil {
			return nil, err
		}
		recount(st)
		ph := p.runRounds(cfg, st, rep, budget, 0, nil)
		n := float64(max(ph.jobs, 1))
		wallMetrics(rep, cfg.steal, ph.blocks, nil)
		rep.metrics["cpu_ms_per_op"] = float64(ph.cpuNs) / 1e6 / n
		ph.acc.report(rep)
		rep.metrics["peak_rss_mb"] = blockPeakRSS(ph.blocks, cfg.steal)
		if hwm, err := peakRSSMiB("self"); err == nil {
			rep.notes["vmhwm_mb"] = hwm
		}
		rep.notes["rounds"], rep.notes["jobs"] = ph.rounds, ph.jobs
		addGoLayers(rep, ph.before, ph.after, ph.jobs)
		for k, v := range rep.layers {
			rep.notes[k] = v
		}
		return rep, nil
	}
	// Traced run: the same rounds untraced, then traced; outputs must
	// not change and the wall-time ratio is the tracing overhead.
	st, err := setup()
	if err != nil {
		return nil, err
	}
	recount(st)
	plain := p.runRounds(cfg, st, rep, budget/2, 0, nil)
	probe := newBatchProbe(cfg.workers)
	traced := p.runRounds(cfg, st, rep, 0, plain.rounds, probe)
	rep.gate(len(plain.digests) == len(traced.digests), "traced run completed %d jobs, untraced %d", len(traced.digests), len(plain.digests))
	for i := range plain.digests {
		if i < len(traced.digests) {
			rep.gate(plain.digests[i] == traced.digests[i], "job %d: traced output digest differs from untraced", i)
		}
	}
	probe.report(rep, traced.jobs)
	rep.layers["trace.overhead_ratio"] = float64(traced.wallNs) / float64(max(plain.wallNs, 1))
	addGoLayers(rep, traced.before, traced.after, traced.jobs)
	rep.spans = probe.spans
	rep.layers["trace.spans"] = float64(len(probe.spans.spans))
	return rep, nil
}

// recountAccessLog recounts requests per project, per page and the
// top pages straight from the generated blocks, independently of the
// map/reduce path, and compares the precise references to it.
func recountAccessLog(in *dfs.File, refs map[string]map[string]float64) error {
	proj, page := map[string]float64{}, map[string]float64{}
	for _, b := range in.Blocks {
		if _, err := b.Lines(nil, func(line []byte) error {
			f := strings.Split(string(line), "\t")
			if len(f) != 4 {
				return fmt.Errorf("block %d: malformed line %q", b.Index, line)
			}
			if _, err := strconv.ParseInt(f[0], 10, 64); err != nil {
				return fmt.Errorf("block %d: bad timestamp in %q", b.Index, line)
			}
			if _, err := strconv.Atoi(f[3]); err != nil {
				return fmt.Errorf("block %d: bad size in %q", b.Index, line)
			}
			proj[f[1]]++
			page[f[2]]++
			return nil
		}); err != nil {
			return err
		}
	}
	for name, want := range map[string]map[string]float64{"proj": proj, "page": page} {
		if err := sameCounts(refs[name], want); err != nil {
			return fmt.Errorf("%s reference: %w", name, err)
		}
	}
	if top, ok := refs["top"]; ok {
		if err := sameCounts(top, topK(page, len(top))); err != nil {
			return fmt.Errorf("top reference: %w", err)
		}
	}
	return nil
}

func sameCounts(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d keys, recount has %d", len(got), len(want))
	}
	for k, w := range want {
		//lint:ignore nofloateq counts are integers held exactly in float64
		if g, ok := got[k]; !ok || g != w {
			return fmt.Errorf("key %q: %v, recount %v", k, got[k], w)
		}
	}
	return nil
}

// topK keeps the k largest counts, ties broken by key (the order the
// exact top-k reducer uses).
func topK(counts map[string]float64, k int) map[string]float64 {
	keys := make([]string, 0, len(counts))
	for key := range counts {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		//lint:ignore nofloateq integer counts; exact ties fall through to key order
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := map[string]float64{}
	for _, key := range keys[:min(k, len(keys))] {
		out[key] = counts[key]
	}
	return out
}
