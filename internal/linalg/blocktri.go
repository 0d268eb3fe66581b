package linalg

import (
	"errors"
	"fmt"
)

// BlockTriDiag is a symmetric block-tridiagonal matrix
//
//	⎡ D₀  E₁ᵀ          ⎤
//	⎢ E₁  D₁  E₂ᵀ      ⎥
//	⎢     E₂  D₂  ⋱    ⎥
//	⎣         ⋱   ⋱    ⎦
//
// with square diagonal blocks D_t (sizes may vary) and sub-diagonal blocks
// E_t of shape len(D_t) × len(D_{t−1}). Only D and the sub-diagonal E are
// stored; symmetry is implicit.
//
// This is exactly the sparsity pattern of the interior-point normal equations
// of a multi-period optimization problem whose constraints couple only
// adjacent periods, which is what makes the staircase LP solver linear in the
// horizon length.
//
// In such problems only a few rows of each E_t are nonzero: the constraints
// of period t that share a variable with period t−1. SubRows records that
// row support so the factorization can skip the rest.
type BlockTriDiag struct {
	Diag []*Dense // T diagonal blocks, Diag[t] is n_t × n_t
	Sub  []*Dense // T−1 sub-diagonal blocks, Sub[t] couples block t+1 to block t (n_{t+1} × n_t)

	// SubRows[t], when non-nil, lists in strictly ascending order the rows
	// of Sub[t] that may be nonzero; every other row of Sub[t] must be
	// exactly zero. A nil SubRows, or a nil entry, means all rows.
	SubRows [][]int
}

// NewBlockTriDiag allocates zero blocks for the given block sizes.
func NewBlockTriDiag(sizes []int) *BlockTriDiag {
	m := &BlockTriDiag{
		Diag: make([]*Dense, len(sizes)),
		Sub:  make([]*Dense, 0, len(sizes)),
	}
	for t, n := range sizes {
		m.Diag[t] = NewDense(n, n)
		if t > 0 {
			m.Sub = append(m.Sub, NewDense(n, sizes[t-1]))
		}
	}
	return m
}

// NumBlocks returns the number of diagonal blocks.
func (m *BlockTriDiag) NumBlocks() int { return len(m.Diag) }

// Dim returns the total dimension Σ n_t.
func (m *BlockTriDiag) Dim() int {
	n := 0
	for _, d := range m.Diag {
		n += d.Rows
	}
	return n
}

// Offsets returns the starting index of each block within a flat vector.
func (m *BlockTriDiag) Offsets() []int {
	off := make([]int, len(m.Diag)+1)
	for t, d := range m.Diag {
		off[t+1] = off[t] + d.Rows
	}
	return off
}

// Validate checks block shape consistency.
func (m *BlockTriDiag) Validate() error {
	if len(m.Sub) != len(m.Diag)-1 && !(len(m.Diag) == 0 && len(m.Sub) == 0) {
		return fmt.Errorf("linalg: block-tridiag has %d diagonal and %d sub-diagonal blocks", len(m.Diag), len(m.Sub))
	}
	for t, d := range m.Diag {
		if d.Rows != d.Cols {
			return fmt.Errorf("linalg: diagonal block %d is %dx%d", t, d.Rows, d.Cols)
		}
		if t > 0 {
			e := m.Sub[t-1]
			if e.Rows != d.Rows || e.Cols != m.Diag[t-1].Rows {
				return fmt.Errorf("linalg: sub-diagonal block %d is %dx%d, want %dx%d",
					t-1, e.Rows, e.Cols, d.Rows, m.Diag[t-1].Rows)
			}
		}
	}
	if m.SubRows != nil && len(m.SubRows) != len(m.Sub) {
		return fmt.Errorf("linalg: %d row supports for %d sub-diagonal blocks", len(m.SubRows), len(m.Sub))
	}
	for t, rows := range m.SubRows {
		for i, r := range rows {
			if r < 0 || r >= m.Sub[t].Rows || (i > 0 && r <= rows[i-1]) {
				return fmt.Errorf("linalg: row support of sub-diagonal block %d is not strictly ascending in [0, %d)", t, m.Sub[t].Rows)
			}
		}
	}
	return nil
}

// BlockTriChol is the block Cholesky factorization of a symmetric positive
// definite block-tridiagonal matrix: M = L·Lᵀ with L block lower bidiagonal.
// The zero BlockTriChol is a valid workspace: Refactorize fills it and
// reuses every internal buffer (per-block factors, coupling blocks, Schur
// scratch, solve scratch) across calls with the same block structure.
//
// The coupling block F_t = E_t·L_{t−1}⁻ᵀ of L has the row support of E_t
// (BlockTriDiag.SubRows): a zero row of E_t gives an exactly zero (+0) row
// of F_t. Only the support rows are stored and computed, so a block step
// costs O(n³/3 + k·n²) for k support rows instead of O(n³). Every stored
// element sees the same floating-point operations in the same order as on
// the all-rows path, and the skipped terms are +0 products whose
// subtraction changes no bit, so the factor, and every solve of a finite
// right-hand side, are bit-identical to the all-rows computation.
type BlockTriChol struct {
	factors []*Cholesky // per-block lower-triangular factors L_t
	// offdiag[t−1] holds the support rows of F_t, t = 1..T−1: its row i is
	// row rows[t−1][i] of F_t.
	offdiag []*Dense
	rows    [][]int // row support of each E_t, copied from BlockTriDiag.SubRows
	offsets []int

	schur   []*Dense  // reusable per-block Schur complement workspaces
	scratch []float64 // per-solve coupling scratch (max block size)
	gather  []float64 // x_{t+1} on the support rows of E_{t+1} (max support size)
}

// NewBlockTriChol factorizes M. maxShift controls per-block diagonal
// regularization exactly as in NewCholesky.
func NewBlockTriChol(m *BlockTriDiag, maxShift float64) (*BlockTriChol, error) {
	f := &BlockTriChol{}
	if err := f.RefactorizeWorkers(m, maxShift, 1); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactorize factorizes M into the receiver, reusing its buffers when the
// block structure matches the previous call. On error the factor contents
// are undefined and must not be used for solves.
//
//soral:hotpath
func (f *BlockTriChol) Refactorize(m *BlockTriDiag, maxShift float64) error {
	return f.RefactorizeWorkers(m, maxShift, 1)
}

// RefactorizeWorkers is Refactorize with the per-block kernels — the F_t
// coupling solves, the Schur complement updates S_t = D_t − F_t·F_tᵀ, and
// the dense block factorizations — run on `workers` goroutines. The block
// recurrence itself is inherently sequential (block t needs L_{t−1}), so
// parallelism lives inside each block step; results are bit-identical to
// serial for every worker count because every output row of every kernel is
// owned by one worker and computed in serial order.
func (f *BlockTriChol) RefactorizeWorkers(m *BlockTriDiag, maxShift float64, workers int) error {
	if err := m.Validate(); err != nil {
		return err
	}
	T := len(m.Diag)
	if T == 0 {
		return errors.New("linalg: empty block-tridiagonal matrix")
	}
	if len(f.factors) != T {
		f.factors = make([]*Cholesky, T)
		f.offdiag = make([]*Dense, T-1)
		f.rows = make([][]int, T-1)
		f.schur = make([]*Dense, T)
	}
	if len(f.offsets) != T+1 {
		f.offsets = make([]int, T+1)
	}
	maxBlock, maxSupport := 0, 0
	for t, d := range m.Diag {
		f.offsets[t+1] = f.offsets[t] + d.Rows
		if d.Rows > maxBlock {
			maxBlock = d.Rows
		}
	}
	for t, e := range m.Sub {
		rows := f.rows[t][:0]
		if m.SubRows != nil && m.SubRows[t] != nil {
			rows = append(rows, m.SubRows[t]...)
		} else {
			for r := 0; r < e.Rows; r++ {
				rows = append(rows, r)
			}
		}
		f.rows[t] = rows
		if len(rows) > maxSupport {
			maxSupport = len(rows)
		}
	}
	if len(f.scratch) < maxBlock {
		f.scratch = make([]float64, maxBlock)
	}
	if len(f.gather) < maxSupport {
		f.gather = make([]float64, maxSupport)
	}
	var prev *Cholesky
	for t := 0; t < T; t++ {
		d := m.Diag[t]
		s := f.schur[t]
		if s == nil || s.Rows != d.Rows || s.Cols != d.Cols {
			s = NewDense(d.Rows, d.Cols)
			f.schur[t] = s
		}
		copy(s.Data, d.Data)
		if t > 0 {
			e, rows := m.Sub[t-1], f.rows[t-1]
			ft := f.offdiag[t-1]
			if ft == nil || ft.Rows != len(rows) || ft.Cols != e.Cols {
				ft = NewDense(len(rows), e.Cols)
				f.offdiag[t-1] = ft
			}
			blockCouple(s, ft, e, rows, prev, workers)
		}
		if f.factors[t] == nil {
			f.factors[t] = &Cholesky{}
		}
		if err := f.factors[t].RefactorizeWorkers(s, maxShift, workers); err != nil {
			return fmt.Errorf("linalg: block %d: %w", t, err)
		}
		prev = f.factors[t]
	}
	return nil
}

// blockCouple fills the support rows of F_t = E_t·L_{t−1}⁻ᵀ into ft and
// applies S_t −= F_t·F_tᵀ to s. Both kernels split the support rows into
// independent ranges. The serial collapse calls them directly — closure
// literals would be heap-allocated even on the collapsed path, and
// Refactorize sits inside the solvers' zero-allocation loop (see
// EffectiveWorkers).
func blockCouple(s, ft, e *Dense, rows []int, prev *Cholesky, workers int) {
	k := len(rows)
	if EffectiveWorkers(workers, k) == 1 {
		blockCouplingSolve(ft, e, rows, prev, 0, k)
		blockSchurUpdate(s, ft, rows, 0, k)
		return
	}
	ParallelRanges(workers, k, func(lo, hi int) {
		blockCouplingSolve(ft, e, rows, prev, lo, hi)
	})
	ParallelRanges(workers, k, func(lo, hi int) {
		blockSchurUpdate(s, ft, rows, lo, hi)
	})
}

// blockCouplingSolve fills rows [lo, hi) of ft, the support rows of
// F = E·L⁻ᵀ, by one forward substitution L·Yᵀ = Eᵀ over those right-hand
// sides. Every element gets exactly the operations Cholesky.SolveLower would
// apply to its row; solving the right-hand sides together only lets each row
// of L serve all of them while it is in cache.
func blockCouplingSolve(ft, e *Dense, rows []int, prev *Cholesky, lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(ft.Row(i), e.Row(rows[i]))
	}
	for j := 0; j < prev.N; j++ {
		lrow := prev.L.Row(j)
		for i := lo; i < hi; i++ {
			y := ft.Row(i)
			s := y[j]
			for k := 0; k < j; k++ {
				s -= lrow[k] * y[k]
			}
			y[j] = s / prev.L.At(j, j)
		}
	}
}

// blockSchurUpdate applies S −= F·Fᵀ to the support rows [lo, hi) of S, on
// the lower triangle the block factorization reads. Rows and columns of S
// outside the support would only have +0 subtracted.
func blockSchurUpdate(s, ft *Dense, rows []int, lo, hi int) {
	for i := lo; i < hi; i++ {
		fi := ft.Row(i)
		srow := s.Row(rows[i])
		for j, r := range rows[:i+1] {
			srow[r] -= Dot(fi, ft.Row(j))
		}
	}
}

// Solve solves M·x = b, writing into x (which may alias b).
//
//soral:hotpath
func (f *BlockTriChol) Solve(x, b []float64) {
	off := f.offsets
	n := off[len(off)-1]
	if len(x) != n || len(b) != n {
		panic("linalg: BlockTriChol.Solve dimension mismatch")
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	T := len(f.factors)
	// Forward: y_t = L_t⁻¹ (b_t − F_t y_{t−1}); F_t y_{t−1} is zero off the
	// support rows.
	for t := 0; t < T; t++ {
		xt := x[off[t]:off[t+1]]
		if t > 0 {
			ft := f.offdiag[t-1]
			prev := x[off[t-1]:off[t]]
			for i, r := range f.rows[t-1] {
				xt[r] -= Dot(ft.Row(i), prev)
			}
		}
		f.factors[t].SolveLower(xt, xt)
	}
	// Backward: x_t = L_t⁻ᵀ (y_t − F_{t+1}ᵀ x_{t+1}); only the support rows
	// of F_{t+1} contribute.
	for t := T - 1; t >= 0; t-- {
		xt := x[off[t]:off[t+1]]
		if t < T-1 {
			ft, rows := f.offdiag[t], f.rows[t]
			next := x[off[t+1]:off[t+2]]
			g := f.gather[:len(rows)]
			for i, r := range rows {
				g[i] = next[r]
			}
			tmp := f.scratch[:len(xt)]
			ft.MulVecTrans(tmp, g)
			SubTo(xt, xt, tmp)
		}
		f.factors[t].SolveUpper(xt, xt)
	}
}

// Shift returns the maximum diagonal regularization applied to any block.
func (f *BlockTriChol) Shift() float64 {
	var s float64
	for _, c := range f.factors {
		if c.Shift > s {
			s = c.Shift
		}
	}
	return s
}
