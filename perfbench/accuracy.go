package main

import "math"

// estimate is one output key in workload-neutral form.
type estimate struct {
	key       string
	value     float64
	halfWidth float64 // confidence-interval half-width
	exact     bool    // computed from complete data
	bounded   bool    // halfWidth is finite
}

// accuracy scores approximate outputs against exact references.
//
// Per approximate job (stream: per window) it takes the value-weighted
// actual error Σ|est−exact| / Σ|exact| over the reference's keys — a
// key the sample missed counts with its whole exact value — and the
// value-weighted interval half-width over the keys present in both
// outputs. Jobs are grouped by configuration (label); rel_err and
// ci_halfwidth are the mean over configurations of the median within
// each, so a run's figure does not hinge on which configuration's jobs
// straddle an overall median. ci_coverage is the share of (approximate
// job, key present in both outputs) pairs whose interval contains the
// exact value; an unbounded interval counts as not covering.
type accuracy struct {
	jobErr, jobHalfWidth map[string][]float64
	covered, pairs       int
}

// addJob scores one job of configuration label and returns how many
// reference keys it missed.
func (a *accuracy) addJob(label string, outs []estimate, ref map[string]float64) (missed int) {
	if a.jobErr == nil {
		a.jobErr, a.jobHalfWidth = map[string][]float64{}, map[string][]float64{}
	}
	var errSum, refSum, hwSum, hwRef float64
	seen := make(map[string]bool, len(outs))
	for _, o := range outs {
		want, ok := ref[o.key]
		if !ok {
			continue
		}
		seen[o.key] = true
		errSum += math.Abs(o.value - want)
		if o.exact {
			continue
		}
		a.pairs++
		if !o.bounded {
			continue
		}
		hwSum += o.halfWidth
		hwRef += math.Abs(want)
		if math.Abs(o.value-want) <= o.halfWidth {
			a.covered++
		}
	}
	for k, want := range ref {
		refSum += math.Abs(want)
		if !seen[k] {
			errSum += math.Abs(want)
		}
	}
	if refSum > 0 {
		a.jobErr[label] = append(a.jobErr[label], errSum/refSum)
	}
	if hwRef > 0 {
		a.jobHalfWidth[label] = append(a.jobHalfWidth[label], hwSum/hwRef)
	}
	return len(ref) - len(seen)
}

// meanOfMedians is the mean over labels of each label's median.
func meanOfMedians(byLabel map[string][]float64) float64 {
	if len(byLabel) == 0 {
		return 0
	}
	s := 0.0
	for _, xs := range byLabel {
		s += median(xs)
	}
	return s / float64(len(byLabel))
}

// meanOfQuantiles is the mean over labels of each label's q-quantile.
func meanOfQuantiles(byLabel map[string][]float64, q float64) float64 {
	if len(byLabel) == 0 {
		return 0
	}
	s := 0.0
	for _, xs := range byLabel {
		s += quantile(xs, q)
	}
	return s / float64(len(byLabel))
}

func (a *accuracy) report(rep *report) {
	rep.metrics["rel_err"] = meanOfMedians(a.jobErr)
	rep.metrics["ci_halfwidth"] = meanOfMedians(a.jobHalfWidth)
	if a.pairs > 0 {
		rep.metrics["ci_coverage"] = float64(a.covered) / float64(a.pairs)
	}
	rep.notes["accuracy_configs"], rep.notes["accuracy_pairs"] = len(a.jobErr), a.pairs
}
