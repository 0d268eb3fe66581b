package main

import (
	"math"
	"time"
)

// Host-contention calibration. Two fixed loops are timed between passes:
// an FP-throughput, cache-bound Cholesky loop that slows about 1.8× in the
// host's slow episodes, and a dependent math.Log chain that stays within a
// few percent. A run whose figures diverge while fpCalib reads slow and
// chainCalib does not coincided with such an episode. Neither is gated.

const (
	calibN        = 48  // Cholesky order
	calibFPReps   = 120 // factorizations per fpCalib
	calibChainLen = 1e5 // dependent logs per chainCalib
)

// calibMatrix is a fixed SPD matrix: the Gram-like matrix of a smooth kernel
// plus a diagonal shift.
var calibMatrix = func() []float64 {
	a := make([]float64, calibN*calibN)
	for i := 0; i < calibN; i++ {
		for j := 0; j < calibN; j++ {
			a[i*calibN+j] = 1 / (1 + math.Abs(float64(i-j)))
		}
		a[i*calibN+i] += calibN
	}
	return a
}()

// calibSink keeps the loops' results live.
var calibSink float64

// fpCalib times calibFPReps in-place Cholesky factorizations of calibMatrix.
func fpCalib() time.Duration {
	work := make([]float64, len(calibMatrix))
	start := time.Now()
	for r := 0; r < calibFPReps; r++ {
		copy(work, calibMatrix)
		cholesky(work, calibN)
	}
	d := time.Since(start)
	calibSink += work[len(work)-1]
	return d
}

// cholesky factorizes the n×n row-major SPD matrix a in place (lower
// triangle).
func cholesky(a []float64, n int) {
	for j := 0; j < n; j++ {
		row := a[j*n : j*n+j]
		d := a[j*n+j]
		for _, v := range row {
			d -= v * v
		}
		if d <= 0 {
			return // not positive definite; calibMatrix always is
		}
		d = math.Sqrt(d)
		a[j*n+j] = d
		for i := j + 1; i < n; i++ {
			ri := a[i*n : i*n+j]
			s := a[i*n+j]
			for k, v := range ri {
				s -= v * row[k]
			}
			a[i*n+j] = s / d
		}
	}
}

// chainCalib times a chain of calibChainLen dependent math.Log calls.
func chainCalib() time.Duration {
	x := 2.5
	start := time.Now()
	for i := 0; i < calibChainLen; i++ {
		x = math.Log(x) + 2.5
	}
	d := time.Since(start)
	calibSink += x
	return d
}
