package stats

import (
	"math"
	"sync"
)

// RegIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Lentz's method), following the
// classic betacf construction. It is accurate to roughly 1e-12 for the
// parameter ranges used by the t distribution.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(lbeta - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 500
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		fm := float64(m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// NormalCDF is the standard normal cumulative distribution function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns the standard-normal quantile for probability p
// in (0, 1) using Acklam's rational approximation refined by one Halley
// step, which yields close to machine precision.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		//lint:ignore nofloateq boundary of the quantile domain; only an exact 1 maps to +Inf
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	// Coefficients for Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow = 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-plow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// TCDF is the cumulative distribution function of Student's t
// distribution with df degrees of freedom.
func TCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the quantile of Student's t distribution with df
// degrees of freedom at probability p in (0, 1). For df <= 0 it returns
// NaN. Large df falls back to the normal quantile.
func TQuantile(p, df float64) float64 {
	switch {
	case df <= 0 || math.IsNaN(p) || p <= 0 || p >= 1:
		if p == 0 {
			return math.Inf(-1)
		}
		//lint:ignore nofloateq boundary of the quantile domain; only an exact 1 maps to +Inf
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	case df > 1e7:
		return NormalQuantile(p)
	//lint:ignore nofloateq the median shortcut applies only to a literal 0.5; nearby values take the general path correctly
	case p == 0.5:
		return 0
	}
	// Exploit symmetry: solve for the upper tail then mirror.
	if p < 0.5 {
		return -TQuantile(1-p, df)
	}
	// Bracket: the t quantile always exceeds the normal quantile in
	// magnitude; expand the upper bound until the CDF crosses p.
	lo := NormalQuantile(p)
	if lo < 0 {
		lo = 0
	}
	hi := lo + 1
	for TCDF(hi, df) < p {
		hi *= 2
		if hi > 1e12 {
			break
		}
	}
	// Bisection, then a couple of Newton steps via the density.
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// tCritCache memoizes two-sided t critical values: the quantile
// inversion costs ~10us, and estimators and the target-error and
// deadline planners ask for the same (confidence, df) pairs at every
// wave boundary. Callers fetch one value per planning probe or per
// Finalize call, not one per key, so a lookup here is not on a
// per-key path.
var tCritCache sync.Map // [2]float64{confidence, df} -> float64

// TwoSidedT returns the critical value t_{df, 1-alpha/2} used for a
// symmetric confidence interval at level (1-alpha). For example,
// TwoSidedT(0.95, 9) is t_{9, 0.975}. Results are memoized.
func TwoSidedT(confidence float64, df float64) float64 {
	if confidence <= 0 || confidence >= 1 {
		return math.NaN()
	}
	key := [2]float64{confidence, df}
	if v, ok := tCritCache.Load(key); ok {
		return v.(float64)
	}
	alpha := 1 - confidence
	t := TQuantile(1-alpha/2, df)
	tCritCache.Store(key, t)
	return t
}
