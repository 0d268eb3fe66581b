package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestRepresentativesAcrossPasses(t *testing.T) {
	passes := []pass{
		{ops: []float64{5, 1, 9}},
		{ops: []float64{3, 4, 7}},
		{ops: []float64{4, 2, 8}},
	}
	min := representatives(passes, statMin)
	med := representatives(passes, statMedian)
	for i, want := range []float64{3, 1, 7} {
		if !near(min[i], want) {
			t.Errorf("op %d: min across passes = %g, want %g", i, min[i], want)
		}
	}
	for i, want := range []float64{4, 2, 8} {
		if !near(med[i], want) {
			t.Errorf("op %d: median across passes = %g, want %g", i, med[i], want)
		}
	}
	// An even pass count interpolates between the two middle samples.
	if got := represent([]float64{1, 2, 4, 8}, statMedian); !near(got, 3) {
		t.Errorf("median of 1,2,4,8 = %g, want 3", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.9, 46}, {1, 50}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile reordered its input")
	}
}

// opsPass builds one pass of n ops whose op i takes base+i seconds.
func opsPass(n int, base, setup float64) pass {
	p := pass{setup: setup, ops: make([]float64, n)}
	for i := range p.ops {
		p.ops[i] = base + float64(i)
	}
	return p
}

func TestP90DroppedBelowHundredOps(t *testing.T) {
	if _, ok := p90(make([]float64, minOpsForP90-1)); ok {
		t.Fatalf("p90 reported with %d ops per pass", minOpsForP90-1)
	}
	reps := opsPass(minOpsForP90, 0, 0).ops
	v, ok := p90(reps)
	if !ok {
		t.Fatalf("p90 dropped with %d ops per pass", minOpsForP90)
	}
	if !near(v, quantile(reps, 0.9)) {
		t.Errorf("p90 = %g, want %g", v, quantile(reps, 0.9))
	}

	// With too few ops the summary falls back to the slowest op, an upper
	// bound on the 90th percentile, and says so.
	s := summarize([]pass{opsPass(4, 1, 0), opsPass(4, 2, 0)}, statMin)
	if s.p90True || !near(s.p90, 4) {
		t.Errorf("4 ops per pass: p90 = %g (true percentile %v), want slowest op 4 (false)", s.p90, s.p90True)
	}
	s = summarize([]pass{opsPass(120, 1, 0)}, statMin)
	if !s.p90True {
		t.Error("120 ops per pass: p90 dropped")
	}
}

func TestOpsPerSecondFromRepresentatives(t *testing.T) {
	// Op 0 is fast in pass 0 and slow in pass 1, op 1 the other way round:
	// the raw mean latency is 2 s, the representative (minimum) 1 s.
	passes := []pass{{ops: []float64{1, 3}}, {ops: []float64{3, 1}}}
	if got := summarize(passes, statMin).opsPerS; !near(got, 1) {
		t.Errorf("ops_per_s (min) = %g, want 1", got)
	}
	if got := summarize(passes, statMedian).opsPerS; !near(got, 0.5) {
		t.Errorf("ops_per_s (median) = %g, want 0.5", got)
	}
	if got := opsPerSecond([]float64{0.25, 0.25, 0.5}); !near(got, 3) {
		t.Errorf("3 ops in 1 s: ops_per_s = %g, want 3", got)
	}
}

func TestSetupMeasuredPerPass(t *testing.T) {
	passes := []pass{opsPass(3, 1, 0.004), opsPass(3, 1, 0.002), opsPass(3, 1, 0.009)}
	for _, stat := range []statistic{statMin, statMedian} {
		s := summarize(passes, stat)
		// Set-up is a short op on every workload: the minimum across
		// passes, whatever statistic the workload's ops take.
		if !near(s.setup, 0.002) {
			t.Errorf("%s ops: setup = %g, want the per-pass minimum 0.002", stat, s.setup)
		}
		if s.passes != 3 || s.ops != 3 {
			t.Errorf("%s ops: %d passes × %d ops, want 3 × 3", stat, s.passes, s.ops)
		}
	}
}
