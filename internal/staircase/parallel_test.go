package staircase

import (
	"math/rand"
	"testing"

	"soral/internal/lp"
	"soral/internal/model"
)

// buildBackend converts a P1 layout to standard form and wires up a Backend
// exactly as Solve does, so the assembly kernel can be driven directly.
func buildBackend(t *testing.T, l *model.Layout) (*lp.Standard, *Backend) {
	t.Helper()
	std, err := l.Prob.ToStandard()
	if err != nil {
		t.Fatal(err)
	}
	rowBlock := make([]int, std.A.M)
	for r, origin := range std.RowOrigin {
		if origin >= 0 {
			rowBlock[r] = l.SlotOfCons[origin]
		} else {
			rowBlock[r] = l.SlotOfVar[-1-origin]
		}
	}
	be, err := NewBackend(std, rowBlock, l.W)
	if err != nil {
		t.Fatal(err)
	}
	return std, be
}

// TestFactorizeWorkersBitIdentical asserts the per-block assembly is
// bit-identical across worker counts: block ownership plus ascending
// (column, i, j) order make the parallel pass reproduce the serial one
// exactly (DESIGN.md §8).
func TestFactorizeWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	n := model.RandomNetwork(rng, 2, 3, 2, 10)
	in := model.RandomInputs(rng, n, 6)
	l, err := model.BuildP1(n, in, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	std, serial := buildBackend(t, l)
	d := make([]float64, std.A.N)
	for i := range d {
		d[i] = rng.Float64() + 0.1
	}
	d[0] = 0 // exercise the zero-weight column fast path
	serial.SetWorkers(1)
	if err := serial.Factorize(d); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 4, 7} {
		_, par := buildBackend(t, l)
		par.SetWorkers(w)
		if err := par.Factorize(d); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for b := range serial.mat.Diag {
			for i, v := range serial.mat.Diag[b].Data {
				if par.mat.Diag[b].Data[i] != v {
					t.Fatalf("workers=%d: Diag[%d] diverged from serial at %d", w, b, i)
				}
			}
		}
		for b := range serial.mat.Sub {
			for i, v := range serial.mat.Sub[b].Data {
				if par.mat.Sub[b].Data[i] != v {
					t.Fatalf("workers=%d: Sub[%d] diverged from serial at %d", w, b, i)
				}
			}
		}
	}
}

// TestStaircaseSolveWorkersBitIdentical runs the full structured pipeline
// serial and parallel and demands identical iterates end to end.
func TestStaircaseSolveWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	n := model.RandomNetwork(rng, 2, 2, 2, 10)
	in := model.RandomInputs(rng, n, 5)
	l, err := model.BuildP1(n, in, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Solve(l.Prob, l.SlotOfCons, l.SlotOfVar, l.W, lp.Options{Workers: 1})
	if err != nil || serial.Status != lp.Optimal {
		t.Fatalf("serial: %v %v", serial, err)
	}
	for _, w := range []int{2, 4} {
		par, err := Solve(l.Prob, l.SlotOfCons, l.SlotOfVar, l.W, lp.Options{Workers: w})
		if err != nil || par.Status != lp.Optimal {
			t.Fatalf("workers=%d: %v %v", w, par, err)
		}
		if par.Iters != serial.Iters {
			t.Fatalf("workers=%d: %d iterations vs serial %d", w, par.Iters, serial.Iters)
		}
		for i := range serial.X {
			if par.X[i] != serial.X[i] {
				t.Fatalf("workers=%d: X[%d]=%v differs from serial %v", w, i, par.X[i], serial.X[i])
			}
		}
	}
}

// TestBackendSteadyStateAllocFree pins the zero-allocation contract of the
// serial IPM loop: once the first Factorize has sized the block matrix, the
// coupling-row supports and the factorization scratch, every later
// Factorize + Solve reuses them.
func TestBackendSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	n := model.RandomNetwork(rng, 2, 3, 2, 10)
	in := model.RandomInputs(rng, n, 6)
	l, err := model.BuildP1(n, in, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	std, be := buildBackend(t, l)
	be.SetWorkers(1)
	d := make([]float64, std.A.N)
	for i := range d {
		d[i] = rng.Float64() + 0.1
	}
	rhs := make([]float64, std.A.M)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x := make([]float64, std.A.M)
	if err := be.Factorize(d); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := be.Factorize(d); err != nil {
			t.Fatal(err)
		}
		be.Solve(x, rhs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Factorize+Solve allocates %v times per call", allocs)
	}
}

// TestCouplingRowSupport checks the structural row support NewBackend
// derives: every row of a sub-diagonal block outside its support assembles
// to exactly zero, and on P1 the support is a strict subset of the rows
// (only the reconfiguration epigraph rows couple adjacent slots).
func TestCouplingRowSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	n := model.RandomNetwork(rng, 2, 3, 2, 10)
	if err := n.EnableTier1([]float64{40, 50, 60}, []float64{2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	l, err := model.BuildP1(n, model.RandomInputs(rng, n, 5), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	std, be := buildBackend(t, l)
	d := make([]float64, std.A.N)
	for i := range d {
		d[i] = rng.Float64() + 0.1
	}
	if err := be.Factorize(d); err != nil {
		t.Fatal(err)
	}
	for b, e := range be.mat.Sub {
		rows := be.mat.SubRows[b]
		if len(rows) == 0 || len(rows) >= e.Rows {
			t.Fatalf("Sub[%d]: %d support rows of %d", b, len(rows), e.Rows)
		}
		in := make([]bool, e.Rows)
		for _, r := range rows {
			in[r] = true
		}
		for r := 0; r < e.Rows; r++ {
			for c, v := range e.Row(r) {
				if !in[r] && v != 0 {
					t.Fatalf("Sub[%d] row %d outside the support has %v at column %d", b, r, v, c)
				}
			}
		}
	}
}
