package rng

import "math"

// Poisson returns a Poisson(mean) variate. It is exact for all mean >= 0
// (no Gaussian approximation): small means use multiplicative inversion,
// large means use Hörmann's PTRS transformed-rejection algorithm.
//
// Poissonization is the backbone of the paper's analysis (Section 2): the
// algorithms draw Poisson(m) samples so that per-element counts become
// independent. This sampler makes that literal in the implementation.
func (r *RNG) Poisson(mean float64) int {
	switch {
	case mean < 0 || math.IsNaN(mean):
		panic("rng: Poisson with negative or NaN mean")
	case mean == 0:
		return 0
	case mean < inversionMax:
		return r.poissonInversion(mean)
	default:
		return r.poissonPTRS(mean)
	}
}

// inversionMax is the mean below which Poisson draws by inversion.
const inversionMax = 10

// PoissonFill stores len(out) independent Poisson(mean) variates in
// out: the values, and the stream position afterwards, of len(out)
// calls of Poisson(mean). For a mean Poisson draws by inversion, the
// limit e^−mean is computed once for the whole batch and the generator
// is stepped by value (see Next), so its state stays in registers; any
// other mean calls Poisson per variate.
func (r *RNG) PoissonFill(out []int, mean float64) {
	if !(mean > 0 && mean < inversionMax) {
		for i := range out {
			out[i] = r.Poisson(mean)
		}
		return
	}
	limit := math.Exp(-mean)
	g := *r
	var x uint64
	// open is Float64Open's uniform in (0, 1) on g: the one 53-bit
	// value that maps to 1 is drawn again.
	open := func() float64 {
		for {
			x, g = g.Next()
			if u := float64(x>>11+1) * (1.0 / (1 << 53)); u < 1 {
				return u
			}
		}
	}
	for i := range out {
		prod, k := open(), 0
		for prod > limit {
			prod *= open()
			k++
		}
		out[i] = k
	}
	*r = g
}

// poissonInversion draws by multiplying uniforms until the product drops
// below e^-mean. Expected work is O(mean); used only for mean < 10.
func (r *RNG) poissonInversion(mean float64) int {
	limit := math.Exp(-mean)
	prod := r.Float64Open()
	k := 0
	for prod > limit {
		prod *= r.Float64Open()
		k++
	}
	return k
}

// poissonPTRS implements W. Hörmann's PTRS algorithm ("The transformed
// rejection method for generating Poisson random variables", Insurance:
// Mathematics and Economics 12, 1993) for mean >= 10.
func (r *RNG) poissonPTRS(mean float64) int {
	logMean := math.Log(mean)
	b := 0.931 + 2.53*math.Sqrt(mean)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)

	for {
		u := r.Float64() - 0.5
		v := r.Float64Open()
		us := 0.5 - math.Abs(u)
		kf := math.Floor((2*a/us+b)*u + mean + 0.43)
		if us >= 0.07 && v <= vr {
			return int(kf)
		}
		if kf < 0 || (us < 0.013 && v > us) {
			continue
		}
		k := kf
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logMean-mean-lg {
			return int(k)
		}
	}
}

// Gamma returns a Gamma(shape, 1) variate (scale 1) using the
// Marsaglia–Tsang squeeze method, with the standard boost for shape < 1.
// It panics if shape <= 0.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 || math.IsNaN(shape) {
		panic("rng: Gamma needs positive shape")
	}
	if shape < 1 {
		// Boosting: Gamma(a) = Gamma(a+1) * U^{1/a}.
		return r.Gamma(shape+1) * math.Pow(r.Float64Open(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Normal()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64Open()
		x2 := x * x
		if u < 1-0.0331*x2*x2 {
			return d * v
		}
		if math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(a, b) variate as a ratio of Gammas.
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	return x / (x + y)
}

// Binomial returns a Binomial(n, p) variate, exact for all n >= 0 and
// p in [0, 1]. Small n counts Bernoulli trials; small n*min(p,1-p) uses
// geometric skips; the general case uses the exact beta-splitting recursion
// (Knuth TAOCP vol. 2, §3.4.1), which needs O(log n) Beta draws.
func (r *RNG) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with negative n")
	}
	if p < 0 || p > 1 || math.IsNaN(p) {
		panic("rng: Binomial needs p in [0,1]")
	}
	if p > 0.5 {
		return n - r.Binomial(n, 1-p)
	}
	if p == 0 || n == 0 {
		return 0
	}
	count := 0
	for n > 0 {
		np := float64(n) * p
		switch {
		case n <= 64:
			for i := 0; i < n; i++ {
				if r.Float64() < p {
					count++
				}
			}
			return count
		case np < 32:
			// Geometric skips: expected O(np) iterations.
			i := -1
			for {
				i += 1 + r.Geometric(p)
				if i >= n {
					return count
				}
				count++
			}
		default:
			// Split at the median-ish order statistic: the a-th smallest of
			// n uniforms is Beta(a, n+1-a).
			a := 1 + n/2
			v := r.Beta(float64(a), float64(n+1-a))
			if v <= p {
				count += a
				n -= a
				p = (p - v) / (1 - v)
			} else {
				n = a - 1
				p = p / v
			}
			if p > 0.5 {
				return count + (n - r.Binomial(n, 1-p))
			}
		}
	}
	return count
}
