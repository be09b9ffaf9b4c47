// Stream-plane doubles: the router (Pipeline, runState) owns window
// lifecycle on a single goroutine; reservoir folds run on the compute
// pool and may only touch shard-owned state.
package compute

// Pipeline doubles for the stream pipeline config (scheduler plane).
type Pipeline struct {
	workers int
	closed  int
}

// runState doubles for the stream router's mutable state (scheduler
// plane).
type runState struct {
	plan      float64
	nextClose int64
}

// reservoirLike doubles for the per-(window, stratum) reservoir:
// shard-owned fold state the compute plane may freely mutate.
type reservoirLike struct {
	vals []float64
	seen int64
}

// foldStream is a compute-plane root that wrongly reads pipeline
// config and advances router state from a pool goroutine.
//
//approx:compute
func foldStream(p *Pipeline, rs *runState, res *reservoirLike, v float64) int {
	if p.closed > 0 { // want: purity
		return -1
	}
	rs.plan += v // want: purity
	return admitStream(res, v)
}

// admitStream is the legal part of the closure: it touches only the
// reservoir its shard owns, so it carries no finding.
func admitStream(res *reservoirLike, v float64) int {
	res.seen++
	if len(res.vals) < cap(res.vals) {
		res.vals = append(res.vals, v)
		return len(res.vals) - 1
	}
	return -1
}

// routerClose is NOT reachable from a compute root: the router may
// touch its own state and the pipeline config freely.
func routerClose(p *Pipeline, rs *runState) {
	rs.nextClose++
	p.closed++
}

var _ = foldStream
var _ = routerClose
