package staircase

import (
	"sync"

	"soral/internal/lp"
	"soral/internal/obs"
)

// Cache reuses a staircase Backend across solves of structurally identical
// problems (DESIGN.md §13): a receding-horizon controller re-solving the
// same window shape slot after slot rebuilds the partition validation, the
// column-ownership lists, the coupling-row supports, the block-tridiagonal
// matrix, and the factorization skeleton every time, yet none of them
// depend on the numeric values — only on the sparsity pattern and the row
// partition.
//
// The cache holds at most one backend with checkout semantics: Get removes
// it (so concurrent solves — LCP-M runs prefix solves in parallel — never
// share a workspace), Put returns it. A Get whose structural signature does
// not match builds a fresh backend, and reuse is bit-identical to a fresh
// build: every numeric buffer of the backend is overwritten before use.
type Cache struct {
	mu  sync.Mutex
	be  *Backend
	sig uint64
}

// NewCache returns an empty backend cache.
func NewCache() *Cache { return &Cache{} }

// get checks out a cached backend matching sig, or nil.
func (c *Cache) get(sig uint64) *Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.be == nil || c.sig != sig {
		return nil
	}
	be := c.be
	c.be = nil
	return be
}

// put returns a backend to the cache. With several concurrent checkouts the
// first one back wins; the rest are dropped for the collector.
func (c *Cache) put(be *Backend, sig uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.be == nil {
		c.be, c.sig = be, sig
	}
}

// signature fingerprints the structural identity of a staircase problem:
// dimensions, block count, the row partition, and the row sparsity pattern
// of A (indices only — values are numeric, not structural). FNV-1a over the
// integer stream.
func signature(a *lp.SparseMatrix, rowBlock []int, numBlocks int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(a.M))
	mix(uint64(a.N))
	mix(uint64(numBlocks))
	for _, b := range rowBlock {
		mix(uint64(b))
	}
	for _, row := range a.Rows {
		mix(uint64(len(row)))
		for _, e := range row {
			mix(uint64(e.Index))
		}
	}
	return h
}

// SolveCached is Solve with backend reuse through a Cache. A nil cache
// degenerates to Solve. The solution is bit-identical to Solve's for every
// reuse pattern; only construction work is saved.
func SolveCached(cache *Cache, p *lp.Problem, slotOfCons, slotOfVar []int, numBlocks int, opts lp.Options) (*lp.GeneralSolution, error) {
	if cache == nil {
		return Solve(p, slotOfCons, slotOfVar, numBlocks, opts)
	}
	std, err := p.ToStandard()
	if err != nil {
		return nil, err
	}
	rowBlock := make([]int, std.A.M)
	for r, origin := range std.RowOrigin {
		if origin >= 0 {
			rowBlock[r] = slotOfCons[origin]
		} else {
			rowBlock[r] = slotOfVar[-1-origin]
		}
	}
	sig := signature(std.A, rowBlock, numBlocks)
	be := cache.get(sig)
	if be != nil {
		// Rebind the values; every structural artifact (partition, column
		// ownership, factorization skeleton) carries over unchanged.
		be.a = std.A
		opts.Obs.Count(obs.MetricWarmStairHits, 1)
	} else {
		be, err = NewBackend(std, rowBlock, numBlocks)
		if err != nil {
			return nil, err
		}
	}
	be.SetWorkers(opts.Workers)
	sol, serr := lp.SolveStandard(std, be, opts)
	cache.put(be, sig)
	if serr != nil {
		return nil, serr
	}
	x := std.Recover(sol.X)
	return &lp.GeneralSolution{
		Status: sol.Status,
		X:      x,
		Obj:    p.Objective(x),
		Iters:  sol.Iters,
	}, nil
}
