package main

import (
	"math"
	"sort"
)

// statistic says how one op's latencies across passes collapse into the
// op's representative latency.
//
// On the 2-vCPU VM this benchmark was tuned on, cache- and FP-bound code
// runs at either full speed or about 0.55× speed, in episodes lasting from
// 0.1 s to minutes. An op of a millisecond or less usually lands wholly
// inside one episode, so its minimum over passes spread across tens of
// seconds reads the fast mode whenever the run saw one. An op of ~300 ms
// rarely fits inside a fast episode, so its minimum is itself noisy and the
// median across passes is steadier.
type statistic int

const (
	// statMin takes the minimum across passes: for short ops.
	statMin statistic = iota
	// statMedian takes the median across passes: for long ops (≥100 ms).
	statMedian
)

func (s statistic) String() string {
	if s == statMedian {
		return "median"
	}
	return "min"
}

// setupStat is the statistic for the per-pass set-up time. Set-up is a
// millisecond-scale op on every workload, so it takes the short-op
// statistic whatever the workload's ops take.
const setupStat = statMin

// minOpsForP90 is the smallest per-pass op count for which op_p90_ms is a
// true 90th percentile: at least ten ops lie beyond it.
const minOpsForP90 = 100

// pass is one pass's timings, in seconds.
type pass struct {
	setup float64
	ops   []float64
}

// summary is a run's end-to-end timing metrics, in seconds.
type summary struct {
	p50, p90 float64
	// p90True reports that p90 is the 90th percentile; when false (fewer
	// than minOpsForP90 ops per pass) p90 holds the slowest op's
	// representative latency, which bounds the 90th percentile from above.
	p90True bool
	opsPerS float64
	setup   float64
	reps    []float64 // each op's representative latency
	ops     int       // ops per pass
	passes  int
}

// represent collapses one op's samples across passes.
func represent(samples []float64, s statistic) float64 {
	if s == statMedian {
		return quantile(samples, 0.5)
	}
	m := math.Inf(1)
	for _, v := range samples {
		m = math.Min(m, v)
	}
	return m
}

// representatives returns each op's representative latency across the
// passes; every pass must hold the same op sequence.
func representatives(passes []pass, s statistic) []float64 {
	if len(passes) == 0 {
		return nil
	}
	n := len(passes[0].ops)
	reps := make([]float64, n)
	col := make([]float64, len(passes))
	for i := 0; i < n; i++ {
		for p := range passes {
			col[p] = passes[p].ops[i]
		}
		reps[i] = represent(col, s)
	}
	return reps
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (Hyndman–Fan type 7); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// p90 returns the 90th percentile of the representative latencies, or false
// when a pass has fewer than minOpsForP90 ops.
func p90(reps []float64) (float64, bool) {
	if len(reps) < minOpsForP90 {
		return 0, false
	}
	return quantile(reps, 0.9), true
}

// opsPerSecond is the closed loop's sustainable op rate: ops divided by the
// sum of their representative latencies.
func opsPerSecond(reps []float64) float64 {
	var sum float64
	for _, v := range reps {
		sum += v
	}
	if sum <= 0 {
		return 0
	}
	return float64(len(reps)) / sum
}

// summarize computes a run's end-to-end timing metrics from its passes.
func summarize(passes []pass, s statistic) summary {
	reps := representatives(passes, s)
	setups := make([]float64, len(passes))
	for p := range passes {
		setups[p] = passes[p].setup
	}
	sum := summary{
		p50:     quantile(reps, 0.5),
		opsPerS: opsPerSecond(reps),
		setup:   represent(setups, setupStat),
		reps:    reps,
		ops:     len(reps),
		passes:  len(passes),
	}
	sum.p90, sum.p90True = p90(reps)
	if !sum.p90True {
		sum.p90 = quantile(reps, 1)
	}
	return sum
}
