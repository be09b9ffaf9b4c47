package main

import (
	"sort"
	"sync"
	"time"
)

// Wall-clock figures are reported net of host CPU steal.
//
// The benchmark shares its host with other virtual machines. On the
// 2-vCPU host it was defined on, the hypervisor stole between 2 and
// 19 s of CPU per 20 s run, and a run's throughput fell linearly with
// it (sweep: 10.0 jobs/s at 2 s of steal, 5.1 at 19 s) while its CPU
// time per job stayed within 8%. Measured phases are therefore cut into
// blocks — a batch round, a stream repetition, one second of service
// load — and the host's steal and busy CPU time are sampled alongside.
// A vCPU is only stolen from while it has work, so the share of a
// block's runnable CPU time that was stolen, steal / (steal + busy), is
// the share of any op's wall time the hypervisor took, whether one CPU
// or all of them were busy. A block's effective length is its wall time
// less that share; throughput is ops per effective second (the median
// over blocks), and each latency is scaled by its block's
// effective/wall ratio. The raw wall figures are kept in the result
// file.

// stealClock samples the host's cumulative CPU steal and busy time
// and this process's resident set.
type stealClock struct {
	mu   sync.Mutex
	ts   []int64   // sample times, ns since epoch
	st   []float64 // cumulative steal seconds at ts
	busy []float64 // cumulative busy CPU seconds at ts
	rss  []float64 // resident set of this process at ts, MiB
	stop chan struct{}
	done chan struct{}
}

func startStealClock() *stealClock {
	c := &stealClock{stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	steal, busy := hostCPU()
	rss, t := selfRSSMiB(), nowNs()
	c.mu.Lock()
	c.ts, c.st = append(c.ts, t), append(c.st, steal)
	c.busy, c.rss = append(c.busy, busy), append(c.rss, rss)
	c.mu.Unlock()
}

// close stops sampling and waits for the sampler to exit.
func (c *stealClock) close() {
	close(c.stop)
	<-c.done
}

// at is the cumulative steal at time t, interpolated between samples.
func (c *stealClock) at(t int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return interpolate(c.ts, c.st, t)
}

// interpolate is the cumulative series ys (sampled at ts) at time t.
func interpolate(ts []int64, ys []float64, t int64) float64 {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	switch {
	case len(ts) == 0:
		return 0
	case i == 0:
		return ys[0]
	case i == len(ts):
		return ys[len(ys)-1]
	}
	t0, t1 := ts[i-1], ts[i]
	f := float64(t-t0) / float64(max(t1-t0, 1))
	return ys[i-1] + f*(ys[i]-ys[i-1])
}

// netFactor is the share of [start, end] the hypervisor did not take:
// busy / (busy + steal) over the interval, floored at 0.1.
func (c *stealClock) netFactor(start, end int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	stolen := interpolate(c.ts, c.st, end) - interpolate(c.ts, c.st, start)
	busy := interpolate(c.ts, c.busy, end) - interpolate(c.ts, c.busy, start)
	if stolen <= 0 || busy+stolen <= 0 {
		return 1
	}
	return max(busy/(busy+stolen), 0.1)
}

// rssPeak is the largest resident set sampled in [start, end], or the
// first one after it when the interval fell between samples.
func (c *stealClock) rssPeak(start, end int64) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	peak := 0.0
	for i, t := range c.ts {
		if t > end {
			if peak == 0 {
				peak = c.rss[i]
			}
			break
		}
		if t >= start {
			peak = max(peak, c.rss[i])
		}
	}
	return peak
}

// block is one timed slice of a measured phase.
type block struct {
	start, end int64                // wall interval, ns since epoch
	ops        int                  // ops completed in the block
	lat        map[string][]float64 // latencies (ms) by op label
}

func newBlock(start int64) *block { return &block{start: start, lat: map[string][]float64{}} }

// blockRate is the median over blocks of ops per second; with a
// clock, per effective (steal-free) second.
func blockRate(blocks []*block, c *stealClock) float64 {
	rates := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		secs := float64(max(b.end-b.start, 1)) / 1e9
		if c != nil {
			secs *= c.netFactor(b.start, b.end)
		}
		rates = append(rates, float64(b.ops)/secs)
	}
	return median(rates)
}

// blockPeakRSS is the median over blocks of each block's peak resident
// set, in MiB. The process's high-water mark is one maximum over the
// whole run and moves with where garbage collections happen to fall;
// the median over blocks does not.
func blockPeakRSS(blocks []*block, c *stealClock) float64 {
	peaks := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		peaks = append(peaks, c.rssPeak(b.start, b.end))
	}
	return median(peaks)
}

// mergeLat pools the blocks' latencies by label; with a clock, each
// scaled by its block's steal-free share.
func mergeLat(blocks []*block, c *stealClock) map[string][]float64 {
	out := map[string][]float64{}
	for _, b := range blocks {
		f := 1.0
		if c != nil {
			f = c.netFactor(b.start, b.end)
		}
		for k, xs := range b.lat {
			for _, x := range xs {
				out[k] = append(out[k], x*f)
			}
		}
	}
	return out
}

// wallMetrics sets ops_per_s from rateBlocks (nil: latBlocks) and
// op_ms_p50/op_ms_p90 from latBlocks, net of steal. A batch round
// mixes jobs, and a service cycle specs, that differ tenfold in cost,
// and a quantile of the pooled times would sit on a boundary between
// them, so op_ms_p50 is the median per op label averaged over labels.
// A label may have only a few ops in a run, too few for a tail of its
// own, so op_ms_p90 is op_ms_p50 times the 90th percentile, over all
// ops, of an op's time over its label's median.
func wallMetrics(rep *report, c *stealClock, latBlocks, rateBlocks []*block) {
	if rateBlocks == nil {
		rateBlocks = latBlocks
	}
	lat := mergeLat(latBlocks, c)
	rep.metrics["ops_per_s"] = blockRate(rateBlocks, c)
	rep.metrics["op_ms_p50"] = meanOfQuantiles(lat, 0.5)
	rep.metrics["op_ms_p90"] = tailQuantile(lat, 0.9)
	rep.notes["op_ms_p99"] = tailQuantile(lat, 0.99)
	raw := mergeLat(latBlocks, nil)
	rep.notes["raw_wall"] = map[string]float64{
		"ops_per_s": blockRate(rateBlocks, nil),
		"op_ms_p50": meanOfQuantiles(raw, 0.5),
		"op_ms_p90": tailQuantile(raw, 0.9),
		"op_ms_p99": tailQuantile(raw, 0.99),
	}
	rep.notes["blocks"] = len(latBlocks)
}

// tailQuantile is the mean over labels of their medians times the q
// quantile of every time over its label's median. With one label it is
// that label's q quantile.
func tailQuantile(byLabel map[string][]float64, q float64) float64 {
	var ratios []float64
	for _, xs := range byLabel {
		m := quantile(xs, 0.5)
		if m <= 0 {
			continue
		}
		for _, x := range xs {
			ratios = append(ratios, x/m)
		}
	}
	return meanOfQuantiles(byLabel, 0.5) * quantile(ratios, q)
}
