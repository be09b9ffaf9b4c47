package main

import (
	"sync"

	"approxhadoop/internal/mapreduce"
	"approxhadoop/internal/vtime"
)

// Batch tracing wraps the extension points a mapreduce.Job already
// offers — Job.Meter (with vtime.Forker), Job.Controller, the Emitter
// handed to Mapper.Map (via Job.NewMapper) and Job.Trace — and reads
// the wall clock around each call. The wrappers change no decision:
// the meter returns exactly vtime.Deterministic's charges and forks
// per attempt, the emitter forwards ElementEmitter and vtime.Charger,
// and readers are left alone so their push-mode fast paths stay.

// numMeterOps covers vtime's operation classes (OpSetup..OpReduce).
const numMeterOps = int(vtime.OpReduce) + 1

// attemptProbe accumulates one map attempt's brackets. It is written
// only by the goroutine running the attempt.
type attemptProbe struct {
	start, end           int64
	setupNs, readNs      int64
	procNs               int64
	scanned, bytes, maps int64
	setups               int64
}

// mapperProbe is one attempt's mapper wrapper with its emit totals.
type mapperProbe struct {
	inner mapreduce.Mapper
	em    probeEmitter
}

// Map implements mapreduce.Mapper.
func (m *mapperProbe) Map(rec mapreduce.Record, emit mapreduce.Emitter) {
	m.em.inner = emit
	m.inner.Map(rec, &m.em)
}

// probeEmitter times Emit/EmitElement and forwards every optional
// interface the framework emitter implements.
type probeEmitter struct {
	inner mapreduce.Emitter
	ns, n int64
}

// Emit implements mapreduce.Emitter.
func (e *probeEmitter) Emit(key string, value float64) {
	t := nowNs()
	e.inner.Emit(key, value)
	e.ns += nowNs() - t
	e.n++
}

// EmitElement implements mapreduce.ElementEmitter.
func (e *probeEmitter) EmitElement(group, element string, weight float64) {
	t := nowNs()
	mapreduce.EmitElement(e.inner, group, element, weight)
	e.ns += nowNs() - t
	e.n++
}

// ChargeCompute implements vtime.Charger.
func (e *probeEmitter) ChargeCompute(units float64) {
	if c, ok := e.inner.(vtime.Charger); ok {
		c.ChargeCompute(units)
	}
}

// jobProbe is one job's tracing state.
type jobProbe struct {
	attempts []*attemptProbe // appended by Fork on the scheduler goroutine

	mu      sync.Mutex // guards mappers: NewMapper runs on pool workers
	mappers []*mapperProbe

	// Scheduler-goroutine state.
	reduceNs, ctlNs int64
	ctlCalls        int64
	events          int64
	launches        int64
	ctlSpans        []span
	reduceSpans     []span
	lastReduceEnd   int64
	breakReduce     bool // a fork or controller call since the last reduce bracket
}

// probeMeter is the wrapping meter: vtime.Deterministic's charges plus
// wall-clock brackets. The job-level instance sees the scheduler's
// OpReduce brackets; Fork hands each map attempt its own child.
type probeMeter struct {
	det   *vtime.Deterministic
	job   *jobProbe
	att   *attemptProbe // nil on the job-level meter
	begin [numMeterOps]int64
}

// Begin implements vtime.Meter.
func (m *probeMeter) Begin(op vtime.Op) {
	t := nowNs()
	m.begin[op] = t
	if m.att != nil && m.att.start == 0 {
		m.att.start = t
	}
	m.det.Begin(op)
}

// End implements vtime.Meter.
func (m *probeMeter) End(op vtime.Op, units, bytes int64) float64 {
	secs := m.det.End(op, units, bytes)
	t := nowNs()
	d := t - m.begin[op]
	if a := m.att; a != nil {
		a.end = t
		switch op {
		case vtime.OpSetup:
			a.setupNs += d
			a.setups++
		case vtime.OpRead:
			a.readNs += d
			a.scanned += units
			a.bytes += bytes
		case vtime.OpProc:
			a.procNs += d
			a.maps++
		}
		return secs
	}
	if op == vtime.OpReduce {
		j := m.job
		j.reduceNs += d
		// Back-to-back deliveries of one map output coalesce into one
		// span, so a 60-partition job does not store 60 spans per map.
		if n := len(j.reduceSpans); n > 0 && !j.breakReduce && m.begin[op]-j.lastReduceEnd < 2000 {
			j.reduceSpans[n-1].end = t
		} else {
			j.reduceSpans = append(j.reduceSpans, span{kind: spanReduce, start: m.begin[op], end: t})
		}
		j.lastReduceEnd, j.breakReduce = t, false
	}
	return secs
}

// Charge implements vtime.Meter.
func (m *probeMeter) Charge(units float64) { m.det.Charge(units) }

// Fork implements vtime.Forker: one child per map attempt, charging
// exactly what a forked vtime.Deterministic charges.
func (m *probeMeter) Fork() vtime.Meter {
	a := &attemptProbe{}
	m.job.attempts = append(m.job.attempts, a)
	m.job.breakReduce = true
	det, ok := m.det.Fork().(*vtime.Deterministic)
	if !ok {
		det = vtime.NewDeterministic()
	}
	return &probeMeter{det: det, job: m.job, att: a}
}

// probeController times Plan and Completed.
type probeController struct {
	inner mapreduce.Controller
	job   *jobProbe
}

// Name implements mapreduce.Controller.
func (c *probeController) Name() string { return c.inner.Name() }

// Plan implements mapreduce.Controller.
func (c *probeController) Plan(v *mapreduce.JobView) (float64, mapreduce.PlanAction) {
	t := nowNs()
	r, a := c.inner.Plan(v)
	c.record(t)
	return r, a
}

// Completed implements mapreduce.Controller.
func (c *probeController) Completed(v *mapreduce.JobView) mapreduce.Directive {
	t := nowNs()
	d := c.inner.Completed(v)
	c.record(t)
	return d
}

func (c *probeController) record(t0 int64) {
	t1 := nowNs()
	j := c.job
	j.ctlNs += t1 - t0
	j.ctlCalls++
	j.ctlSpans = append(j.ctlSpans, span{kind: spanController, start: t0, end: t1})
	j.breakReduce = true
}

// batchProbe aggregates every traced job of a run.
type batchProbe struct {
	workers int
	spans   *spanLog
	sum     map[string]float64
	wallNs  int64
	busyNs  int64
}

func newBatchProbe(workers int) *batchProbe {
	return &batchProbe{workers: workers, spans: &spanLog{}, sum: map[string]float64{}}
}

// install wraps job's extension points and returns its probe.
func (b *batchProbe) install(job *mapreduce.Job) *jobProbe {
	jp := &jobProbe{}
	job.Meter = &probeMeter{det: vtime.NewDeterministic(), job: jp}
	if job.Controller != nil {
		job.Controller = &probeController{inner: job.Controller, job: jp}
	}
	wrap := func(m mapreduce.Mapper) mapreduce.Mapper {
		mp := &mapperProbe{inner: m}
		jp.mu.Lock()
		jp.mappers = append(jp.mappers, mp)
		jp.mu.Unlock()
		return mp
	}
	if inner := job.NewMapper; inner != nil {
		job.NewMapper = func() mapreduce.Mapper { return wrap(inner()) }
	}
	if inner := job.NewMapperFor; inner != nil {
		job.NewMapperFor = func(task int) mapreduce.Mapper { return wrap(inner(task)) }
	}
	job.Trace = func(ev mapreduce.Event) {
		jp.events++
		if ev.Kind == mapreduce.EventMapLaunched || ev.Kind == mapreduce.EventMapSpeculated {
			jp.launches++
		}
	}
	return jp
}

// finish folds one completed job into the run totals and span log.
func (b *batchProbe) finish(jp *jobProbe, res *mapreduce.Result, t0, t1 int64, missed int) {
	s := b.sum
	op := int32(len(b.spans.spans))
	root := b.spans.add(span{kind: spanJob, op: op, parent: -1, start: t0, end: t1})
	var attemptSpans []span
	var setupNs, readNs, procNs, scanned, bytes, maps, tasks, busy int64
	for _, a := range jp.attempts {
		if a.start == 0 {
			continue // forked but never executed (cached result or killed before running)
		}
		sp := span{kind: spanAttempt, op: op, parent: root, start: a.start, end: a.end}
		attemptSpans = append(attemptSpans, sp)
		b.spans.add(sp)
		busy += a.end - a.start
		setupNs += a.setupNs
		readNs += a.readNs
		procNs += a.procNs
		scanned += a.scanned
		bytes += a.bytes
		maps += a.maps
		tasks += a.setups
	}
	for _, sp := range append(jp.ctlSpans, jp.reduceSpans...) {
		sp.op, sp.parent = op, root
		b.spans.add(sp)
	}
	var emitNs, emits int64
	for _, m := range jp.mappers {
		emitNs += m.em.ns
		emits += m.em.n
	}
	// Map attempts run while the scheduler goroutine waits for the pool;
	// controller calls and reduce brackets run on that goroutine. What
	// none of them covers is the scheduler's own time.
	covered := unionNs(attemptSpans, t0, t1) + jp.ctlNs + jp.reduceNs
	c := res.Counters
	s["approx.read_s"] += float64(readNs) / 1e9
	s["dfs.bytes_read"] += float64(bytes)
	s["approx.items_scanned"] += float64(scanned)
	s["approx.items_sampled"] += float64(maps)
	s["mapreduce.task_setup_s"] += float64(setupNs) / 1e9
	s["mapreduce.tasks_run"] += float64(tasks)
	s["apps.map_s"] += float64(procNs-emitNs) / 1e9
	s["mapreduce.emit_s"] += float64(emitNs) / 1e9
	s["mapreduce.emits"] += float64(emits)
	s["mapreduce.reduce_s"] += float64(jp.reduceNs) / 1e9
	s["mapreduce.pairs_shuffled"] += float64(c.PairsShuffled)
	s["mapreduce.shuffle_bytes"] += float64(c.ShuffleBytes)
	s["approx.keys_missed"] += float64(missed)
	s["approx.controller_s"] += float64(jp.ctlNs) / 1e9
	s["approx.controller_calls"] += float64(jp.ctlCalls)
	s["mapreduce.sched_s"] += float64(max(t1-t0-covered, 0)) / 1e9
	s["cluster.events"] += float64(jp.events)
	s["mapreduce.maps_completed"] += float64(c.MapsCompleted)
	s["mapreduce.maps_dropped"] += float64(c.MapsDropped)
	s["mapreduce.maps_killed"] += float64(c.MapsKilled)
	s["launches"] += float64(jp.launches)
	b.wallNs += t1 - t0
	b.busyNs += busy
}

// report converts the run totals into per-job layer metrics.
func (b *batchProbe) report(rep *report, jobs int) {
	n := float64(max(jobs, 1))
	for k, v := range b.sum {
		if k != "launches" {
			rep.layers[k] = v / n
		}
	}
	if sc := b.sum["approx.items_scanned"]; sc > 0 {
		rep.layers["approx.sample_yield"] = b.sum["approx.items_sampled"] / sc
	}
	if l := b.sum["launches"]; l > 0 {
		rep.layers["mapreduce.launch_yield"] = b.sum["mapreduce.maps_completed"] / l
	}
	if b.wallNs > 0 {
		rep.layers["mapreduce.pool_util"] = float64(b.busyNs) / (float64(b.wallNs) * float64(b.workers))
	}
}
