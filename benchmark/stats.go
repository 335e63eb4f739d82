package main

import (
	"math"
	"sort"
	"sync"
)

// quantile returns the q-quantile of an ascending slice by nearest
// rank; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// goodFifth sorts xs in place and returns the mean of its better fifth:
// of 25 slices the five best. The box's other tenants only ever make a
// slice worse, and which share of a run's seconds they spoil differs
// from run to run, so the good end of the slices is the part of a run
// that repeats; a slower program is slower in its good seconds too.
func goodFifth(xs []float64, higherIsBetter bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := max(1, len(xs)/5)
	if higherIsBetter {
		return mean(xs[len(xs)-k:])
	}
	return mean(xs[:k])
}

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cv is the coefficient of variation (population standard deviation
// over the mean), 0 when undefined.
func cv(xs []float64) float64 {
	m := mean(xs)
	if m == 0 {
		return 0
	}
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v/float64(len(xs))) / m
}

// ratio is a/b, 0 when b is 0, for per-op counts on an empty window.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (exclusive method):
// the rule the driver applies to ten runs of one metric.
func quartileSpread(values []float64) float64 {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n < 2 {
		return 0
	}
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	med := at(2)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

// sampler collects latency and kill samples slice by slice. cut closes
// the open slice, keeps its percentiles and reuses its buffers for the
// next one, so the memory a sampler holds does not grow with the run: a
// child that keeps next to nothing alive collects garbage every ~4 MB
// allocated, and samples retained by the benchmark made broker-fanout
// 30% faster in the thirtieth second of a run than in the first. Samples
// offered before the first cut are dropped (warm-up), and so is the
// slice open when the run is summarised.
type sampler struct {
	mu        sync.Mutex
	open      bool
	lat, kill []float64
	done      summary
}

func (s *sampler) cut() {
	s.mu.Lock()
	if s.open {
		sort.Float64s(s.lat)
		sort.Float64s(s.kill)
		s.done.Slices = append(s.done.Slices, sliceStats{
			LatP50: quantile(s.lat, 0.5), LatP90: quantile(s.lat, 0.9), LatP99: quantile(s.lat, 0.99),
			KillP50: quantile(s.kill, 0.5), KillP90: quantile(s.kill, 0.9),
		})
		s.done.LatN += len(s.lat)
		s.done.KillN += len(s.kill)
	}
	s.open, s.lat, s.kill = true, s.lat[:0], s.kill[:0]
	s.mu.Unlock()
}

func (s *sampler) addLat(us float64) {
	s.mu.Lock()
	if s.open {
		s.lat = append(s.lat, us)
	}
	s.mu.Unlock()
}

func (s *sampler) addKill(us float64) {
	s.mu.Lock()
	if s.open {
		s.kill = append(s.kill, us)
	}
	s.mu.Unlock()
}

// sliceStats are one slice's percentiles; summary is a run's.
type sliceStats struct{ LatP50, LatP90, LatP99, KillP50, KillP90 float64 }

type summary struct {
	Slices      []sliceStats
	LatN, KillN int // samples behind the percentiles, whole window
}

func (s *sampler) summary() summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}
