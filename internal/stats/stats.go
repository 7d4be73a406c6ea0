// Package stats provides the descriptive statistics used throughout the
// paper's evaluation: quartiles, inter-quartile range, the quartile
// coefficient of dispersion (QCD, the paper's variability metric in Figure 5),
// Pearson correlation (used to validate the performance model in §2.4),
// bootstrap confidence intervals for the median, and box-plot summaries.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator), or 0
// when fewer than two samples are provided.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	// Tied neighbours return exactly: a*(1-f)+a*f can land an ulp off a,
	// which would make the result non-monotone in p.
	if lo == hi || sorted[lo] == sorted[hi] {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Quartiles returns Q1, the median and Q3 of xs.
func Quartiles(xs []float64) (q1, median, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, 25), percentileSorted(sorted, 50), percentileSorted(sorted, 75)
}

// IQR returns the inter-quartile range Q3 - Q1.
func IQR(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	return q3 - q1
}

// QCD returns the quartile coefficient of dispersion (Q3-Q1)/(Q3+Q1), the
// paper's measure of variability (higher means more variable). It returns 0
// when Q3+Q1 is zero.
func QCD(xs []float64) float64 {
	q1, _, q3 := Quartiles(xs)
	if q1+q3 == 0 {
		return 0
	}
	return (q3 - q1) / (q3 + q1)
}

// PearsonCorrelation returns the Pearson correlation coefficient of the two
// equally sized series, or an error if the sizes differ or fewer than two
// samples are provided. Series with zero variance yield a correlation of 0.
func PearsonCorrelation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: series length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: need at least two samples, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Summary is a box-plot style description of a sample, matching what the
// paper's figures report (median, quartiles, whiskers, mean, outlier count and
// the 95% confidence interval of the median).
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	Q1       float64
	Median   float64
	Q3       float64
	Max      float64
	IQR      float64
	QCD      float64
	Outliers int
	// MedianCILow and MedianCIHigh bound the 95% bootstrap confidence interval
	// of the median (the "notch" in the paper's box plots).
	MedianCILow  float64
	MedianCIHigh float64
}

// Summarize computes a Summary of xs. Outliers are counted with the usual
// 1.5*IQR whisker rule. The median confidence interval uses a deterministic
// bootstrap seeded from the data length.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	q1, med, q3 := Quartiles(xs)
	iqr := q3 - q1
	loFence, hiFence := q1-1.5*iqr, q3+1.5*iqr
	outliers := 0
	for _, x := range xs {
		if x < loFence || x > hiFence {
			outliers++
		}
	}
	lo, hi := BootstrapMedianCI(xs, 200, 0.95, 12345)
	s := Summary{
		N:        len(xs),
		Mean:     Mean(xs),
		StdDev:   StdDev(xs),
		Min:      Min(xs),
		Q1:       q1,
		Median:   med,
		Q3:       q3,
		Max:      Max(xs),
		IQR:      iqr,
		QCD:      QCD(xs),
		Outliers: outliers,

		MedianCILow:  lo,
		MedianCIHigh: hi,
	}
	return s
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d median=%.1f [%.1f,%.1f] mean=%.1f iqr=%.1f qcd=%.3f outliers=%d",
		s.N, s.Median, s.Q1, s.Q3, s.Mean, s.IQR, s.QCD, s.Outliers)
}

// BootstrapMedianCI returns a bootstrap confidence interval of the median at
// the given confidence level, using rounds resamples and a deterministic seed.
func BootstrapMedianCI(xs []float64, rounds int, level float64, seed int64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	if rounds < 10 {
		rounds = 10
	}
	rng := rand.New(rand.NewSource(seed))
	medians := make([]float64, rounds)
	resample := make([]float64, len(xs))
	for r := 0; r < rounds; r++ {
		for i := range resample {
			resample[i] = xs[rng.Intn(len(xs))]
		}
		medians[r] = Median(resample)
	}
	alpha := (1 - level) / 2
	return Percentile(medians, alpha*100), Percentile(medians, (1-alpha)*100)
}

// Normalize returns xs divided by the scalar denom. A zero denominator returns
// a copy of xs unchanged.
func Normalize(xs []float64, denom float64) []float64 {
	out := make([]float64, len(xs))
	if denom == 0 {
		copy(out, xs)
		return out
	}
	for i, x := range xs {
		out[i] = x / denom
	}
	return out
}

// Histogram buckets xs into n equal-width bins between min and max and returns
// the bin counts. Values outside [min, max] are clamped to the edge bins.
func Histogram(xs []float64, n int, min, max float64) []int {
	if n <= 0 || max <= min {
		return nil
	}
	bins := make([]int, n)
	width := (max - min) / float64(n)
	for _, x := range xs {
		idx := int((x - min) / width)
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		bins[idx]++
	}
	return bins
}
