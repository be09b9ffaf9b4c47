package mapreduce

import (
	"hash/fnv"

	"approxhadoop/internal/cluster"
	"approxhadoop/internal/dfs"
	"approxhadoop/internal/sketch"
	"approxhadoop/internal/stats"
	"approxhadoop/internal/vtime"
	"approxhadoop/internal/zerocopy"
)

// Partition returns the reduce partition for a key: hash(key) mod R,
// Hadoop's default HashPartitioner.
func Partition(key string, reduces int) int {
	h := fnv.New32a()
	//lint:ignore errcheck hash.Hash documents that Write never returns an error
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(reduces))
}

// mapResult is the in-memory product of executing one map task.
type mapResult struct {
	measure    cluster.TaskMeasure
	partitions []*MapOutput // one per reduce partition
	pairs      int64        // total pairs emitted
}

// mapEmitter partitions emitted pairs, optionally combining. It
// interns every emitted key once into the attempt's keyTable — which
// also memoizes the key's partition, so the FNV hash runs once per
// distinct key instead of once per emit — and then moves only
// (keyID, value) pairs: raw mode appends idPairs to flat per-partition
// runs; combine mode accumulates into one dense RunningStat slice
// indexed by key ID.
type mapEmitter struct {
	reduces int
	combine bool
	meter   vtime.Meter
	pairs   int64

	intern    *keyTable
	runs      [][]idPair          // raw: per-partition (keyID, value) runs
	combIDs   [][]int32           // combine: per-partition key IDs in first-emit order
	combStats []stats.RunningStat // combine: dense aggregates indexed by key ID

	// sketch representation (Job.Sketch, layered over the above for
	// plain Emit calls): groups interns group keys — which also
	// memoizes each group's partition — proto is the empty sketch
	// cloned per new group, sketches is dense by group ID, and
	// sketchIDs lists each partition's group IDs in first-emit order.
	plan      *SketchPlan
	proto     sketch.Sketch
	groups    *keyTable
	sketches  []sketch.Sketch
	sketchIDs [][]int32
	ekey      []byte // composite-key scratch for the pairs fallback
}

// newMapEmitter builds the per-attempt emitter. pairsHint, when > 0,
// is the expected total pair count for the attempt: partition runs are
// carved zero-length from one preallocated backing array (disjoint
// capacities, so in-capacity appends never interfere), the interner's
// id map is pre-sized, and combiner state is pre-sized, which keeps
// growth reallocations off the emit hot path.
func newMapEmitter(reduces int, combine bool, meter vtime.Meter, pairsHint int) *mapEmitter {
	e := &mapEmitter{reduces: reduces, combine: combine, meter: meter}
	e.intern = newKeyTable(reduces, pairsHint)
	if combine {
		e.combIDs = make([][]int32, reduces)
		if pairsHint > 0 {
			e.combStats = make([]stats.RunningStat, 0, pairsHint)
		}
		return e
	}
	e.runs = make([][]idPair, reduces)
	if pairsHint > 0 {
		perPart := pairsHint/reduces + 1
		backing := make([]idPair, reduces*perPart)
		for i := range e.runs {
			e.runs[i] = backing[i*perPart : i*perPart : (i+1)*perPart]
		}
	}
	return e
}

// enableSketch switches EmitElement from the composite-pair fallback
// to folding into per-group sketches.
func (e *mapEmitter) enableSketch(plan *SketchPlan) error {
	proto, err := plan.newSketch()
	if err != nil {
		return err
	}
	e.plan = plan
	e.proto = proto
	e.groups = newKeyTable(e.reduces, 64)
	e.sketchIDs = make([][]int32, e.reduces)
	return nil
}

// Emit implements Emitter. key may be a transient view of a reusable
// buffer (the Record lifetime contract): the interner copies it on
// first sight.
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) Emit(key string, value float64) {
	id, p := e.intern.Intern(key)
	e.add(id, p, value)
}

// EmitElement implements ElementEmitter. Under a sketch plan the
// element folds into the group's sketch (weight rounds to a positive
// integer count, minimum 1); otherwise it degrades to the composite
// pair group+ElementSep+element — partitioned by the group alone, so a
// group's elements always meet in one reduce partition. group and
// element may be transient buffer views: the interners copy on first
// sight, and the sketches hash without retaining (TopK clones the
// candidates it keeps).
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) EmitElement(group, element string, weight float64) {
	if e.plan == nil {
		p := int32(Partition(group, e.reduces))
		e.ekey = append(e.ekey[:0], group...)
		e.ekey = append(e.ekey, ElementSep[0])
		e.ekey = append(e.ekey, element...)
		e.add(e.intern.InternAt(zerocopy.String(e.ekey), p), p, weight)
		return
	}
	e.pairs++
	id, p := e.groups.Intern(group)
	if int(id) == len(e.sketches) {
		e.sketches = append(e.sketches, e.proto.Clone())
		e.sketchIDs[p] = append(e.sketchIDs[p], id)
	}
	n := uint64(1)
	if weight > 1 {
		n = uint64(weight + 0.5)
	}
	e.sketches[id].Fold(element, n)
}

// add records one pair for an interned key in partition p.
//
//approx:compute
//approx:hotpath
func (e *mapEmitter) add(id, p int32, value float64) {
	e.pairs++
	if e.combine {
		if int(id) == len(e.combStats) {
			e.combStats = append(e.combStats, stats.RunningStat{})
			e.combIDs[p] = append(e.combIDs[p], id)
		}
		e.combStats[id].Add(value)
		return
	}
	e.runs[p] = append(e.runs[p], idPair{id: id, v: value})
}

// ChargeCompute implements vtime.Charger: user map kernels declare
// their inner-loop work so the meter can attribute compute time
// deterministically.
//
//approx:compute
func (e *mapEmitter) ChargeCompute(units float64) { e.meter.Charge(units) }

// executeMap runs one map task attempt in-process: it opens the block
// through the job's input format (applying the sampling ratio), pushes
// every returned record through a fresh Mapper, and partitions the
// emitted pairs. The supplied per-attempt meter splits charged compute
// into setup, read and process components so cost models and the
// target-error controller can fit Equation 5.
//
// Records are views of reusable buffers straight from the block's line
// backing, and the emitter interns keys into the attempt's arena, so
// the per-record path allocates nothing.
//
// executeMap is the compute plane: a pure function of
// (job config, block, ratio, seed) that may run on a pool worker
// concurrently with the virtual-time scheduler. It must never touch
// tracker or engine state, the shared Job.Meter, or package-level
// variables — the approxlint `purity` analyzer enforces this for
// everything reachable from the directive below. Per-attempt buffer
// reuse goes through an attempt-owned BufList, never a sync.Pool,
// which the analyzer also rejects here: pool hand-out order depends on
// goroutine scheduling.
//
//approx:compute
func executeMap(job *Job, block *dfs.Block, taskID int, ratio float64, seed int64, meter vtime.Meter, pairsHint int) (*mapResult, error) {
	meter.Begin(vtime.OpSetup)
	reader, err := job.Format.Open(block, ratio, seed)
	if err != nil {
		return nil, err
	}
	//lint:ignore errcheck block readers close in-memory sources; nothing to surface
	defer reader.Close()
	if ms, ok := reader.(MeterSetter); ok {
		ms.SetMeter(meter)
	}
	if bl, ok := reader.(BufferLender); ok {
		bl.SetBuffers(&BufList{})
	}
	var mapper Mapper
	if job.NewMapperFor != nil {
		mapper = job.NewMapperFor(taskID)
	} else {
		mapper = job.NewMapper()
	}
	emitter := newMapEmitter(job.Reduces, job.Combine, meter, pairsHint)
	if job.Sketch != nil {
		if err := emitter.enableSketch(job.Sketch); err != nil {
			return nil, err
		}
	}
	setup := meter.End(vtime.OpSetup, 1, 0)

	var procSecs float64
	if err := reader.Push(func(rec Record) {
		meter.Begin(vtime.OpProc)
		mapper.Map(rec, emitter)
		procSecs += meter.End(vtime.OpProc, 1, 0)
	}); err != nil {
		return nil, err
	}
	rm := reader.Measure()
	res := &mapResult{
		measure: cluster.TaskMeasure{
			Items:     rm.Items,
			Processed: rm.Sampled,
			Bytes:     rm.Bytes,
			ReadSecs:  rm.ReadSecs,
			ProcSecs:  procSecs,
			SetupSecs: setup,
		},
		pairs: emitter.pairs,
	}
	res.partitions = make([]*MapOutput, job.Reduces)
	outs := make([]MapOutput, job.Reduces) // one allocation for all partitions
	for p := 0; p < job.Reduces; p++ {
		out := &outs[p]
		out.TaskID = taskID
		out.Items = rm.Items
		out.Sampled = rm.Sampled
		out.keys = emitter.intern
		if job.Combine {
			ids := emitter.combIDs[p]
			if ids == nil {
				ids = []int32{} // non-nil marks the output combined
			}
			out.combIDs = ids
			out.combStats = emitter.combStats
		} else {
			out.run = emitter.runs[p]
		}
		if emitter.groups != nil {
			out.groups = emitter.groups
			out.sketchIDs = emitter.sketchIDs[p]
			out.sketches = emitter.sketches
		}
		res.partitions[p] = out
	}
	return res, nil
}
