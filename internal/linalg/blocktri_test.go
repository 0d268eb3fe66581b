package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randBlockTriSPD builds a random SPD block-tridiagonal matrix by assembling
// M = KᵀK + I where K has the right band structure, realized directly in
// block form: D_t = AᵀA + I dominant, E_t small coupling.
func randBlockTriSPD(rng *rand.Rand, sizes []int) *BlockTriDiag {
	m := NewBlockTriDiag(sizes)
	for t, n := range sizes {
		d := randSPD(rng, n)
		// Make diagonally dominant relative to coupling blocks.
		d.AddDiag(10 * float64(n))
		m.Diag[t] = d
		if t > 0 {
			e := randMatrix(rng, n, sizes[t-1])
			Scale(0.5, e.Data)
			m.Sub[t-1] = e
		}
	}
	return m
}

// toDense expands a block-tridiagonal matrix to a dense matrix for reference.
func (m *BlockTriDiag) toDense() *Dense {
	off := m.Offsets()
	n := off[len(off)-1]
	d := NewDense(n, n)
	for t, blk := range m.Diag {
		for i := 0; i < blk.Rows; i++ {
			for j := 0; j < blk.Cols; j++ {
				d.Set(off[t]+i, off[t]+j, blk.At(i, j))
			}
		}
	}
	for t, e := range m.Sub {
		for i := 0; i < e.Rows; i++ {
			for j := 0; j < e.Cols; j++ {
				d.Set(off[t+1]+i, off[t]+j, e.At(i, j))
				d.Set(off[t]+j, off[t+1]+i, e.At(i, j))
			}
		}
	}
	return d
}

// MulVec computes dst = M·x for the full symmetric matrix, block by block.
// It is a test helper: the solvers only ever factorize and solve.
func (m *BlockTriDiag) MulVec(dst, x []float64) {
	off := m.Offsets()
	if len(x) != off[len(off)-1] || len(dst) != len(x) {
		panic("linalg: BlockTriDiag.MulVec dimension mismatch")
	}
	for t, d := range m.Diag {
		d.MulVec(dst[off[t]:off[t+1]], x[off[t]:off[t+1]])
	}
	for t, e := range m.Sub {
		// e couples block t+1 (rows) with block t (cols).
		xlo, xhi := x[off[t]:off[t+1]], x[off[t+1]:off[t+2]]
		th := make([]float64, len(xhi))
		e.MulVec(th, xlo)
		Axpy(1, th, dst[off[t+1]:off[t+2]])
		tl := make([]float64, len(xlo))
		e.MulVecTrans(tl, xhi)
		Axpy(1, tl, dst[off[t]:off[t+1]])
	}
}

func TestBlockTriMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 10; trial++ {
		nb := 1 + rng.Intn(5)
		sizes := make([]int, nb)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(4)
		}
		m := randBlockTriSPD(rng, sizes)
		x := randVec(rng, m.Dim())
		got := make([]float64, m.Dim())
		m.MulVec(got, x)
		want := make([]float64, m.Dim())
		m.toDense().MulVec(want, x)
		for i := range got {
			if !almostEq(got[i], want[i], 1e-10) {
				t.Fatalf("MulVec mismatch at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestBlockTriCholSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		nb := 1 + rng.Intn(6)
		sizes := make([]int, nb)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(5)
		}
		m := randBlockTriSPD(rng, sizes)
		xTrue := randVec(rng, m.Dim())
		b := make([]float64, m.Dim())
		m.MulVec(b, xTrue)

		f, err := NewBlockTriChol(m, 0)
		if err != nil {
			t.Fatalf("factorize: %v", err)
		}
		x := make([]float64, m.Dim())
		f.Solve(x, b)
		for i := range x {
			if !almostEq(x[i], xTrue[i], 1e-7) {
				t.Fatalf("solve mismatch at %d: %v vs %v", i, x[i], xTrue[i])
			}
		}
	}
}

func TestBlockTriCholSolveAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randBlockTriSPD(rng, []int{3, 4, 2})
	xTrue := randVec(rng, m.Dim())
	b := make([]float64, m.Dim())
	m.MulVec(b, xTrue)
	f, err := NewBlockTriChol(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Solve(b, b)
	for i := range b {
		if !almostEq(b[i], xTrue[i], 1e-7) {
			t.Fatal("aliased block solve wrong")
		}
	}
}

func TestBlockTriSingleBlockEqualsCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randSPD(rng, 6)
	m := NewBlockTriDiag([]int{6})
	m.Diag[0] = a
	f, err := NewBlockTriChol(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := randVec(rng, 6)
	b := make([]float64, 6)
	a.MulVec(b, xTrue)
	x := make([]float64, 6)
	f.Solve(x, b)
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-8) {
			t.Fatal("single-block solve differs from Cholesky")
		}
	}
}

func TestBlockTriValidate(t *testing.T) {
	m := NewBlockTriDiag([]int{2, 3})
	if err := m.Validate(); err != nil {
		t.Fatalf("valid structure rejected: %v", err)
	}
	m.Sub[0] = NewDense(2, 2) // wrong shape, should be 3x2
	if err := m.Validate(); err == nil {
		t.Fatal("invalid sub-diagonal shape accepted")
	}
	m2 := &BlockTriDiag{Diag: []*Dense{NewDense(2, 3)}}
	if err := m2.Validate(); err == nil {
		t.Fatal("non-square diagonal block accepted")
	}
	m3 := NewBlockTriDiag([]int{2, 3, 2})
	for _, bad := range [][][]int{
		{{0}},          // one support for two blocks
		{{0, 0}, nil},  // repeated row
		{{2, 1}, nil},  // descending
		{{3}, nil},     // out of range
		{nil, {-1, 0}}, // negative
	} {
		m3.SubRows = bad
		if err := m3.Validate(); err == nil {
			t.Fatalf("row support %v accepted", bad)
		}
	}
	m3.SubRows = [][]int{{0, 2}, nil}
	if err := m3.Validate(); err != nil {
		t.Fatalf("valid row support rejected: %v", err)
	}
}

func TestBlockTriEmptyFactorization(t *testing.T) {
	m := &BlockTriDiag{}
	if _, err := NewBlockTriChol(m, 0); err == nil {
		t.Fatal("expected error for empty matrix")
	}
}

func TestBlockTriOffsets(t *testing.T) {
	m := NewBlockTriDiag([]int{2, 3, 1})
	off := m.Offsets()
	want := []int{0, 2, 5, 6}
	for i := range want {
		if off[i] != want[i] {
			t.Fatalf("Offsets = %v", off)
		}
	}
	if m.Dim() != 6 || m.NumBlocks() != 3 {
		t.Fatal("Dim/NumBlocks wrong")
	}
}

func TestBlockTriCholLongChain(t *testing.T) {
	// A long horizon with small blocks — the staircase IPM regime.
	rng := rand.New(rand.NewSource(24))
	sizes := make([]int, 80)
	for i := range sizes {
		sizes[i] = 3
	}
	m := randBlockTriSPD(rng, sizes)
	xTrue := randVec(rng, m.Dim())
	b := make([]float64, m.Dim())
	m.MulVec(b, xTrue)
	f, err := NewBlockTriChol(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Dim())
	f.Solve(x, b)
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-6) {
			t.Fatalf("long-chain solve mismatch at %d", i)
		}
	}
}

// refBlockTriChol is the all-rows block Cholesky that the support path must
// reproduce bit for bit: every row of F_t = E_t·L_{t−1}⁻ᵀ is solved, the
// Schur update S_t −= F_t·F_tᵀ covers every element, and the solve's
// coupling products run over all rows.
type refBlockTriChol struct {
	factors []*Cholesky
	offdiag []*Dense // F_t in full, indexed t−1
	offsets []int
}

func newRefBlockTriChol(t *testing.T, m *BlockTriDiag) *refBlockTriChol {
	t.Helper()
	f := &refBlockTriChol{offsets: m.Offsets()}
	var prev *Cholesky
	for b, d := range m.Diag {
		s := d.Clone()
		if b > 0 {
			e := m.Sub[b-1]
			ft := NewDense(e.Rows, e.Cols)
			for r := 0; r < e.Rows; r++ {
				prev.SolveLower(ft.Row(r), e.Row(r))
			}
			for i := 0; i < ft.Rows; i++ {
				for j := 0; j < ft.Rows; j++ {
					s.Row(i)[j] -= Dot(ft.Row(i), ft.Row(j))
				}
			}
			f.offdiag = append(f.offdiag, ft)
		}
		c, err := NewCholesky(s, 0)
		if err != nil {
			t.Fatalf("reference block %d: %v", b, err)
		}
		f.factors = append(f.factors, c)
		prev = c
	}
	return f
}

func (f *refBlockTriChol) solve(x, b []float64) {
	off := f.offsets
	copy(x, b)
	T := len(f.factors)
	for t := 0; t < T; t++ {
		xt := x[off[t]:off[t+1]]
		if t > 0 {
			tmp := make([]float64, len(xt))
			f.offdiag[t-1].MulVec(tmp, x[off[t-1]:off[t]])
			SubTo(xt, xt, tmp)
		}
		f.factors[t].SolveLower(xt, xt)
	}
	for t := T - 1; t >= 0; t-- {
		xt := x[off[t]:off[t+1]]
		if t < T-1 {
			tmp := make([]float64, len(xt))
			f.offdiag[t].MulVecTrans(tmp, x[off[t+1]:off[t+2]])
			SubTo(xt, xt, tmp)
		}
		f.factors[t].SolveUpper(xt, xt)
	}
}

// TestBlockTriCholSupportBitIdentical checks the row-support path against
// the all-rows reference: coupling blocks with a mix of zero and nonzero
// rows, with no nonzero row at all, and with every row nonzero (listed
// explicitly and as a nil support). Factors, coupling rows and solves must
// match the reference bit for bit at every worker count, the skipped rows
// of the reference coupling must be +0, and the solve must agree with a
// dense Cholesky of the assembled matrix.
func TestBlockTriCholSupportBitIdentical(t *testing.T) {
	sizes := []int{9, 40, 33, 12, 28, 30}
	for _, pattern := range []string{"mixed", "all-zero", "dense", "nil"} {
		rng := rand.New(rand.NewSource(25))
		m := randBlockTriSPD(rng, sizes)
		m.SubRows = make([][]int, len(m.Sub))
		for b, e := range m.Sub {
			var rows []int
			switch pattern {
			case "mixed":
				for r := 0; r < e.Rows; r++ {
					if rng.Intn(3) > 0 {
						rows = append(rows, r)
					}
				}
			case "all-zero":
				rows = []int{}
			case "dense", "nil":
				for r := 0; r < e.Rows; r++ {
					rows = append(rows, r)
				}
			}
			in := make([]bool, e.Rows)
			for _, r := range rows {
				in[r] = true
			}
			for r := 0; r < e.Rows; r++ {
				if !in[r] {
					Fill(e.Row(r), 0)
				}
			}
			if pattern != "nil" {
				m.SubRows[b] = rows
			}
		}
		ref := newRefBlockTriChol(t, m)
		rhs := randVec(rng, m.Dim())
		want := make([]float64, len(rhs))
		ref.solve(want, rhs)

		dense, err := NewCholesky(m.toDense(), 0)
		if err != nil {
			t.Fatal(err)
		}
		xDense := make([]float64, len(rhs))
		dense.Solve(xDense, rhs)
		for i := range want {
			if !almostEq(want[i], xDense[i], 1e-8) {
				t.Fatalf("%s: block solve %v vs dense Cholesky %v at %d", pattern, want[i], xDense[i], i)
			}
		}

		for _, w := range append([]int{1}, testWorkerCounts...) {
			f := &BlockTriChol{}
			if err := f.RefactorizeWorkers(m, 0, w); err != nil {
				t.Fatalf("%s workers=%d: %v", pattern, w, err)
			}
			for b, c := range f.factors {
				if !bitEqual(c.L.Data, ref.factors[b].L.Data) {
					t.Fatalf("%s workers=%d: block %d factor differs from the all-rows reference", pattern, w, b)
				}
			}
			for b, ft := range ref.offdiag {
				k := 0
				for r := 0; r < ft.Rows; r++ {
					if k < len(f.rows[b]) && f.rows[b][k] == r {
						if !bitEqual(f.offdiag[b].Row(k), ft.Row(r)) {
							t.Fatalf("%s workers=%d: F_%d row %d differs from the reference", pattern, w, b+1, r)
						}
						k++
						continue
					}
					for _, v := range ft.Row(r) {
						if math.Float64bits(v) != 0 {
							t.Fatalf("%s: reference F_%d row %d outside the support is %v, not +0", pattern, b+1, r, v)
						}
					}
				}
			}
			got := make([]float64, len(rhs))
			f.Solve(got, rhs)
			if !bitEqual(got, want) {
				t.Fatalf("%s workers=%d: solve differs from the all-rows reference", pattern, w)
			}
		}
	}
}
