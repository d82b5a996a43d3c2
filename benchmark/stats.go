package main

import "sort"

// median returns the middle of vs (the mean of the middle two for an even
// count), or 0 for no values.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// betterHalfMedian is the estimate every end-to-end metric reports: the
// median of the better half of the repetitions (the faster half for a
// time, the higher half for a rate). On a shared host other tenants only
// ever slow a repetition down, so the better half is the steadier estimate
// of the program's own speed; measured over ten runs in a noisy spell it
// varied 5 % where the plain median varied 8 to 9 %.
func betterHalfMedian(vs []float64, higherBetter bool) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	half := (len(s) + 1) / 2
	if higherBetter {
		return median(s[len(s)-half:])
	}
	return median(s[:half])
}

// percentile returns the p-th percentile (0..1) of sorted by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quartileSpread is the distance between the first and third quartile of
// vs as a share of their median, with the quartiles placed as Python's
// statistics.quantiles(vs, n=4) places them. Fewer than two values have no
// spread.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	med := median(vs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	d := at(3) - at(1)
	if d < 0 {
		d = -d
	}
	if med < 0 {
		med = -med
	}
	return d / med
}
