package main

import (
	"sort"
	"time"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quantiles returns the nearest-rank q-quantiles of ds in
// microseconds (0 for no samples). ds is sorted in place.
func quantiles(ds []time.Duration, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(ds) == 0 {
		return out
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	for i, q := range qs {
		k := int(q*float64(len(ds))+0.999999) - 1
		if k < 0 {
			k = 0
		}
		if k >= len(ds) {
			k = len(ds) - 1
		}
		out[i] = float64(ds[k]) / 1e3
	}
	return out
}
