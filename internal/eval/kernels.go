package eval

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"soral/internal/linalg"
	"soral/internal/lp"
)

// KernelBench is one (kernel, n, workers) timing record of the kernels
// experiment.
type KernelBench struct {
	Kernel  string `json:"kernel"`
	N       int    `json:"n"`
	Workers int    `json:"workers"`
	Iters   int    `json:"iters"`
	NsPerOp int64  `json:"ns_per_op"`
	// Speedup is serial-ns/this-ns for the same kernel and size (1 for the
	// serial rows themselves).
	Speedup float64 `json:"speedup"`
	// BitIdentical reports whether this run's output was byte-for-byte equal
	// to the serial run's — the determinism contract of DESIGN.md §8,
	// re-verified on every benchmark run.
	BitIdentical bool `json:"bit_identical"`
}

// KernelReport is the BENCH_kernels.json schema: the machine's parallel
// envelope plus one record per (kernel, size, workers) cell. Speedups are
// only meaningful when Cores > 1; the report records the envelope so a
// single-core run is never mistaken for a parallelism regression.
type KernelReport struct {
	Cores      int           `json:"cores"`
	GoMaxProcs int           `json:"gomaxprocs"`
	Workers    int           `json:"workers"`
	Results    []KernelBench `json:"results"`
}

// kernelSizes are the benchmarked matrix dimensions (matching the
// BenchmarkSymRankKUpdate/BenchmarkCholesky families in internal/linalg).
var kernelSizes = []int{64, 256, 1024}

// xorshift is a tiny deterministic generator for benchmark inputs; the
// experiment must produce the same matrices on every run and machine.
type xorshift uint64

func (s *xorshift) next() float64 {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = xorshift(x)
	return float64(x%2048)/1024 - 1 // [-1, 1)
}

// timeKernel reports iterations and ns/op for fn, after one warm-up call,
// targeting ~100ms of measurement per cell.
func timeKernel(fn func()) (int, int64) {
	fn()
	const target = 100 * time.Millisecond
	iters := 0
	start := time.Now()
	elapsed := time.Duration(0)
	for elapsed < target && iters < 1000 {
		fn()
		iters++
		elapsed = time.Since(start)
	}
	return iters, elapsed.Nanoseconds() / int64(iters)
}

func denseBytes(m *linalg.Dense) []byte {
	buf := make([]byte, 0, 8*len(m.Data))
	for _, v := range m.Data {
		b := math.Float64bits(v)
		buf = append(buf,
			byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
			byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
	}
	return buf
}

// kernelCase is one benchmarkable kernel: run executes it with the given
// worker count, out snapshots the output for the bit-identity check.
type kernelCase struct {
	name string
	run  func(workers int)
	out  func() []byte
}

// kernelCases builds the structured kernels at size n with deterministic
// inputs.
func kernelCases(n int) []kernelCase {
	rng := xorshift(uint64(n)*2654435761 + 1)

	// SymRankKUpdate: dst += Aᵀ diag(d) A with A m×n, m = n/2.
	m := n / 2
	a := linalg.NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.next()
	}
	d := make([]float64, m)
	for i := range d {
		d[i] = 1 + math.Abs(rng.next())
	}
	dst := linalg.NewDense(n, n)

	// AssembleNormal: sparse A n×2n, 3 nonzeros per column.
	sp := lp.NewSparseMatrix(n, 2*n)
	for c := 0; c < 2*n; c++ {
		for k := 0; k < 3; k++ {
			r := (c + k*k + 1) % n
			sp.Append(r, c, rng.next())
		}
	}
	sp.Canonicalize()
	dw := make([]float64, 2*n)
	for i := range dw {
		dw[i] = 1 + math.Abs(rng.next())
	}
	nrm := linalg.NewDense(n, n)

	// Cholesky: symmetric diagonally-dominant SPD input.
	spd := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.next()
			spd.Set(i, j, v)
			spd.Set(j, i, v)
		}
		spd.Set(i, i, float64(n))
	}
	chol := &linalg.Cholesky{}

	// BlockTriChol: 8 SPD diagonal blocks of n/8 with weak coupling.
	const T = 8
	bn := n / T
	sizes := make([]int, T)
	for t := range sizes {
		sizes[t] = bn
	}
	btd := linalg.NewBlockTriDiag(sizes)
	for t := 0; t < T; t++ {
		blk := btd.Diag[t]
		for i := 0; i < bn; i++ {
			for j := 0; j <= i; j++ {
				v := rng.next()
				blk.Set(i, j, v)
				blk.Set(j, i, v)
			}
			blk.Set(i, i, float64(n))
		}
	}
	for t := 0; t < T-1; t++ {
		blk := btd.Sub[t]
		for i := range blk.Data {
			blk.Data[i] = 0.1 * rng.next()
		}
	}
	btf := &linalg.BlockTriChol{}

	// The staircase pattern: the same blocks, but only every fourth row of
	// each E_t is nonzero (on the day-ahead instance 18 of 78 rows couple
	// adjacent slots), with that row support declared.
	stair := &linalg.BlockTriDiag{Diag: btd.Diag, SubRows: make([][]int, T-1)}
	for t, e := range btd.Sub {
		sub := linalg.NewDense(e.Rows, e.Cols)
		for r := 0; r < e.Rows; r += 4 {
			copy(sub.Row(r), e.Row(r))
			stair.SubRows[t] = append(stair.SubRows[t], r)
		}
		stair.Sub = append(stair.Sub, sub)
	}
	stf := &linalg.BlockTriChol{}

	return []kernelCase{
		{
			name: "symrankk",
			run: func(w int) {
				dst.Zero()
				linalg.SymRankKUpdateWorkers(dst, a, d, w)
			},
			out: func() []byte { return denseBytes(dst) },
		},
		{
			name: "assemble-normal",
			run:  func(w int) { sp.AssembleNormalWorkers(nrm, dw, w) },
			out:  func() []byte { return denseBytes(nrm) },
		},
		{
			name: "cholesky",
			run: func(w int) {
				if err := chol.RefactorizeWorkers(spd, 0, w); err != nil {
					panic(fmt.Sprintf("eval: kernels cholesky n=%d: %v", n, err))
				}
			},
			out: func() []byte { return denseBytes(chol.L) },
		},
		{
			name: "blocktri-chol",
			run: func(w int) {
				if err := btf.RefactorizeWorkers(btd, 0, w); err != nil {
					panic(fmt.Sprintf("eval: kernels blocktri n=%d: %v", n, err))
				}
			},
			out: func() []byte { return blockTriSolveBytes(btf, btd.Dim()) },
		},
		{
			name: "blocktri-staircase",
			run: func(w int) {
				if err := stf.RefactorizeWorkers(stair, 0, w); err != nil {
					panic(fmt.Sprintf("eval: kernels blocktri-staircase n=%d: %v", n, err))
				}
			},
			out: func() []byte { return blockTriSolveBytes(stf, stair.Dim()) },
		},
	}
}

// blockTriSolveBytes solves M·x = 1 with the factorization f and returns x's
// bytes for the bit-identity check.
func blockTriSolveBytes(f *linalg.BlockTriChol, dim int) []byte {
	var buf bytes.Buffer
	x := make([]float64, dim)
	for i := range x {
		x[i] = 1
	}
	f.Solve(x, x)
	for _, v := range x {
		b := math.Float64bits(v)
		buf.Write([]byte{
			byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24),
			byte(b >> 32), byte(b >> 40), byte(b >> 48), byte(b >> 56)})
	}
	return buf.Bytes()
}

// Kernels times the parallel structured kernels (SymRankKUpdate,
// AssembleNormal, blocked Cholesky, block-tridiagonal Cholesky with dense
// and with staircase-sparse coupling blocks) serial vs
// parallel at each benchmark size, re-verifying on the way that the parallel
// outputs are bit-identical to the serial ones. The report is written as
// BENCH_kernels.json by cmd/soralbench -exp kernels -json.
func Kernels(log Logger) (*Table, *KernelReport, error) {
	rep := &KernelReport{
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    linalg.ResolveWorkers(0),
	}
	workerSettings := []int{1}
	if full := linalg.ResolveWorkers(0); full > 1 {
		workerSettings = append(workerSettings, full)
	}
	tbl := &Table{
		Title: fmt.Sprintf("Structured-kernel benchmarks (%d cores, GOMAXPROCS %d)",
			rep.Cores, rep.GoMaxProcs),
		Header: []string{"kernel", "n", "workers", "ns/op", "speedup", "bit-identical"},
	}
	for _, n := range kernelSizes {
		for _, kc := range kernelCases(n) {
			var serialNs int64
			var serialOut []byte
			for _, w := range workerSettings {
				log.printf("kernels %s n=%d workers=%d...", kc.name, n, w)
				iters, ns := timeKernel(func() { kc.run(w) })
				kc.run(w)
				out := kc.out()
				identical := true
				if w == 1 {
					serialNs, serialOut = ns, out
				} else {
					identical = bytes.Equal(out, serialOut)
				}
				speedup := 1.0
				if w != 1 && ns > 0 {
					speedup = float64(serialNs) / float64(ns)
				}
				rep.Results = append(rep.Results, KernelBench{
					Kernel: kc.name, N: n, Workers: w, Iters: iters,
					NsPerOp: ns, Speedup: speedup, BitIdentical: identical,
				})
				tbl.Rows = append(tbl.Rows, []string{
					kc.name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", w),
					fmt.Sprintf("%d", ns), fmt.Sprintf("%.2f", speedup),
					fmt.Sprintf("%v", identical),
				})
				if !identical {
					return nil, nil, fmt.Errorf("eval: kernel %s n=%d workers=%d diverged from the serial result", kc.name, n, w)
				}
			}
		}
	}
	return tbl, rep, nil
}
