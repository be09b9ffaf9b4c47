package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync/atomic"

	"approxhadoop/internal/apps"
	"approxhadoop/internal/stream"
	"approxhadoop/internal/workload"
)

// The stream workload drives apps.WebBytesStream through
// stream.Pipeline.RunEach: a 2000 rec/s diurnal web-access stream
// (±50%, 60 s period), 5 s tumbling windows over 32 client buckets,
// and the adaptive controller at a 10% error SLO (MaxLatency 0.8)
// starting from capacity 64. The stream's records and timestamps are
// fixed by the run seed; each repetition re-seeds only the query
// (reservoirs and shedding), so the exact twin computed in set-up
// scores every repetition.

const (
	streamRate      = 2000
	streamWindow    = 5.0
	streamWarmup    = 4 // windows before the controller has settled
	streamRecPerBlk = 10000
	// streamSources is how many distinct streams a run cycles through:
	// per-window error depends on the heavy-tailed data, so a run
	// averages over several sources rather than one.
	streamSources = 4
)

func streamBlocks(smoke bool) int {
	if smoke {
		return 8 // 80k records: the warm-up windows and a few scored ones
	}
	return 30 // 300k records ≈ 30 windows per source
}

// sourceSeed is the data-and-timestamp seed of source k of a run.
func sourceSeed(runSeed int64, k int) int64 { return runSeed*streamSources + int64(k) }

// streamPipeline builds a fresh pipeline (controllers are stateful).
func streamPipeline(seed int64, smoke bool, workers int) *stream.Pipeline {
	gen := workload.WebLog{Blocks: streamBlocks(smoke), LinesPerBlock: streamRecPerBlk,
		Clients: 3000, Attackers: 40, AttackRate: 0.02, Seed: seed}
	return apps.WebBytesStream(gen, apps.StreamOptions{
		Seed:     seed,
		Rate:     workload.DiurnalRate(streamRate, 0.5, 60),
		Window:   stream.Window{Size: streamWindow},
		SLO:      stream.SLO{TargetRelErr: 0.10, MaxLatency: 0.8},
		Capacity: 64,
		Workers:  workers,
	})
}

// exactSeries runs the exact twin: no controller, reservoirs larger
// than any window, so every stratum is fully enumerated.
func exactSeries(seed int64, smoke bool, workers int) ([]stream.WindowResult, error) {
	p := streamPipeline(seed, smoke, workers)
	p.Controller = nil
	p.Query.Capacity = 1 << 30
	return p.Run()
}

// streamProbe is the traced run's state: the Source, Stratify and
// Value wrappers and the window-emission callback.
type streamProbe struct {
	runNs, inCbNs int64 // Source.Run total, time inside its callback
	cbStart       int64 // start of the ingest call in progress
	stratNs       int64
	valueNs       atomic.Int64 // Value runs on pool workers
	emitNs        int64        // time in the RunEach callback
	closeMs       []float64
	spans         *spanLog
}

type probeSource struct {
	inner stream.Source
	p     *streamProbe
}

// Run implements stream.Source.
func (s probeSource) Run(fn func(t float64, line []byte) error) error {
	t0 := nowNs()
	err := s.inner.Run(func(t float64, line []byte) error {
		c := nowNs()
		s.p.cbStart = c
		err := fn(t, line)
		s.p.inCbNs += nowNs() - c
		return err
	})
	s.p.runNs += nowNs() - t0
	return err
}

func (p *streamProbe) install(pl *stream.Pipeline) {
	pl.Source = probeSource{inner: pl.Source, p: p}
	strat, value := pl.Query.Stratify, pl.Query.Value
	pl.Query.Stratify = func(line []byte) []byte {
		t := nowNs()
		k := strat(line)
		p.stratNs += nowNs() - t
		return k
	}
	if value != nil {
		pl.Query.Value = func(line []byte) (float64, bool) {
			t := nowNs()
			v, ok := value(line)
			p.valueNs.Add(nowNs() - t)
			return v, ok
		}
	}
}

// streamPhase is the outcome of a run of repetitions.
type streamPhase struct {
	reps, windows            int
	records, folded, sampled int64
	keepSum                  float64
	degraded                 int
	blocks                   []*block // one per repetition: window gaps
	digests                  [][32]byte
	acc                      accuracy
	wallNs                   int64
	before, after            procSample
}

func runStreamReps(cfg *config, exact []map[int64]stream.WindowResult, rep *report, budgetNs int64, fixedReps int, probe *streamProbe) *streamPhase {
	ph := &streamPhase{}
	ph.before = sampleSelf()
	start := nowNs()
	for r := 0; ; r++ {
		if fixedReps > 0 && r == fixedReps || fixedReps <= 0 && r > 0 && nowNs()-start >= budgetNs {
			break
		}
		src := r % streamSources
		pl := streamPipeline(sourceSeed(cfg.seed, src), cfg.smoke, cfg.workers)
		pl.Query.Seed = jobSeed(cfg.seed, r, 0)
		var repSpan int32 = -1
		if probe != nil {
			probe.install(pl)
			repSpan = probe.spans.add(span{kind: spanRep, op: int32(r), parent: -1, start: nowNs()})
		}
		var series []stream.WindowResult
		blk := newBlock(nowNs())
		last := int64(0)
		rep.attempted++
		err := pl.RunEach(func(w stream.WindowResult) error {
			t := nowNs()
			if last > 0 {
				blk.lat["window"] = append(blk.lat["window"], float64(t-last)/1e6)
			}
			if probe != nil {
				probe.spans.add(span{kind: spanWindow, op: int32(r), parent: repSpan, start: max(last, probe.spans.spans[repSpan].start), end: t})
				if !w.Partial {
					probe.closeMs = append(probe.closeMs, float64(t-probe.cbStart)/1e6)
				}
			}
			last = t
			series = append(series, w)
			if probe != nil {
				probe.emitNs += nowNs() - t
			}
			return nil
		})
		if err != nil {
			rep.failed++
			rep.gate(false, "stream rep %d: %v", r, err)
			continue
		}
		if probe != nil {
			probe.spans.spans[repSpan].end = nowNs()
		}
		ph.reps++
		blk.end, blk.ops = nowNs(), len(series)
		ph.blocks = append(ph.blocks, blk)
		ph.digests = append(ph.digests, sha256.Sum256(stream.SeriesBytes(series)))
		for _, w := range series {
			ph.windows++
			ph.records += w.Records
			ph.folded += w.Folded
			ph.sampled += w.Sampled
			ph.keepSum += w.Plan.KeepFrac
			if w.Degraded {
				ph.degraded++
			}
			ex, ok := exact[src][w.Index]
			if !ok {
				rep.gate(false, "rep %d window %d has no exact twin", r, w.Index)
				continue
			}
			rep.gate(ex.Records == w.Records, "rep %d window %d routed %d records, exact twin %d", r, w.Index, w.Records, ex.Records)
			if w.Partial || w.Exact || w.Index < streamWarmup || math.Abs(ex.Est.Value) < 1e-9 {
				continue
			}
			ph.acc.addJob("window", []estimate{{key: "window", value: w.Est.Value, halfWidth: w.Est.Err,
				bounded: !math.IsNaN(w.Est.Err) && !math.IsInf(w.Est.Err, 0)}}, map[string]float64{"window": ex.Est.Value})
		}
	}
	ph.wallNs = nowNs() - start
	ph.after = sampleSelf()
	return ph
}

func runStream(cfg *config) (*report, error) {
	rep := newReport()
	setup := func() ([]map[int64]stream.WindowResult, error) {
		var twins []map[int64]stream.WindowResult
		for k := 0; k < streamSources; k++ {
			series, err := exactSeries(sourceSeed(cfg.seed, k), cfg.smoke, cfg.workers)
			if err != nil {
				return nil, err
			}
			if len(series) == 0 {
				return nil, fmt.Errorf("exact twin of source %d emitted no windows", k)
			}
			exact := make(map[int64]stream.WindowResult, len(series))
			for _, w := range series {
				rep.gate(w.Exact, "source %d: exact twin window %d is not exact", k, w.Index)
				exact[w.Index] = w
			}
			twins = append(twins, exact)
		}
		return twins, nil
	}
	budget := int64(cfg.seconds * 1e9)
	if !cfg.trace {
		exact, err := timeSetups(cfg, rep, setup, nil)
		if err != nil {
			return nil, err
		}
		ph := runStreamReps(cfg, exact, rep, budget, 0, nil)
		n := float64(max(ph.windows, 1))
		wallMetrics(rep, cfg.steal, ph.blocks, nil)
		rep.metrics["cpu_ms_per_op"] = float64(ph.after.cpuNs-ph.before.cpuNs) / 1e6 / n
		ph.acc.report(rep)
		rep.metrics["peak_rss_mb"] = blockPeakRSS(ph.blocks, cfg.steal)
		if hwm, err := peakRSSMiB("self"); err == nil {
			rep.notes["vmhwm_mb"] = hwm
		}
		rep.notes["reps"], rep.notes["windows"] = ph.reps, ph.windows
		rep.notes["records_per_s"] = float64(ph.records) / (float64(ph.wallNs) / 1e9)
		return rep, nil
	}
	exact, err := setup()
	if err != nil {
		return nil, err
	}
	plain := runStreamReps(cfg, exact, rep, budget/2, 0, nil)
	probe := &streamProbe{spans: &spanLog{}}
	traced := runStreamReps(cfg, exact, rep, 0, plain.reps, probe)
	rep.gate(len(plain.digests) == len(traced.digests), "traced run completed %d reps, untraced %d", len(traced.digests), len(plain.digests))
	for i := range plain.digests {
		if i < len(traced.digests) {
			rep.gate(plain.digests[i] == traced.digests[i], "rep %d: traced window series differs from untraced", i)
		}
	}
	n := float64(max(traced.windows, 1))
	l := rep.layers
	l["workload.source_s"] = float64(probe.runNs-probe.inCbNs) / 1e9 / n
	l["stream.ingest_s"] = float64(probe.inCbNs-probe.stratNs-probe.emitNs) / 1e9 / n
	l["stream.stratify_s"] = float64(probe.stratNs) / 1e9 / n
	l["stream.value_s"] = float64(probe.valueNs.Load()) / 1e9 / n
	l["stream.close_ms_p99"] = quantile(probe.closeMs, 0.99)
	l["stream.window_ms_p99"] = quantile(mergeLat(plain.blocks, nil)["window"], 0.99)
	l["stream.records"] = float64(traced.records) / n
	l["stream.records_per_s"] = float64(plain.records) / (float64(plain.wallNs) / 1e9)
	l["stream.folded"] = float64(traced.folded) / n
	l["stream.sampled"] = float64(traced.sampled) / n
	if traced.folded > 0 {
		l["stream.sample_ratio"] = float64(traced.sampled) / float64(traced.folded)
	}
	l["stream.keep_frac_mean"] = traced.keepSum / n
	l["stream.degraded_windows"] = float64(traced.degraded) / n
	l["trace.overhead_ratio"] = float64(traced.wallNs) / float64(max(plain.wallNs, 1))
	addGoLayers(rep, traced.before, traced.after, traced.windows)
	rep.spans = probe.spans
	l["trace.spans"] = float64(len(probe.spans.spans))
	return rep, nil
}
