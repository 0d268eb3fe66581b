// Package tsdb is a zero-dependency, fixed-memory, in-process time-series
// store: one ring buffer per metric, sized by resolution × retention at
// creation and never growing afterwards. The record path is lock-free and
// allocation-free (a single writer — the sampler — stores into atomic
// slots; hotalloc-pinned), and readers never block the writer: range
// queries read the ring optimistically and discard any slot the writer
// rewrote mid-read, validated by a per-slot sequence stamp (a seqlock).
//
// The store is deliberately not a database: no files, no compaction, no
// labels. It exists so a long-lived soral process can answer "what did
// this gauge do over the last fifteen minutes" — the input of the watch
// rule engine and the /timeseries endpoint — without an external scraper.
package tsdb

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soral/internal/obs"
)

// Series is one metric's ring of sampled points. The write side assumes a
// single writer (the owning DB's sampler goroutine); reads are safe from any
// goroutine. Memory is fixed at creation: len(ts) slots, never reallocated.
type Series struct {
	name string
	ts   []atomic.Int64  // Unix-nanosecond sample times
	vs   []atomic.Uint64 // float64 bits
	// seq[slot] is i+1 while the slot holds point i intact, and 0 while the
	// writer is rewriting it.
	seq  []atomic.Int64
	head atomic.Int64 // points ever recorded; slot = (head-1) % len
}

func newSeries(name string, capacity int) *Series {
	return &Series{
		name: name,
		ts:   make([]atomic.Int64, capacity),
		vs:   make([]atomic.Uint64, capacity),
		seq:  make([]atomic.Int64, capacity),
	}
}

// Name returns the series' metric name.
func (s *Series) Name() string { return s.name }

// Record appends one point, overwriting the oldest once the ring is full.
// Lock-free and allocation-free; callers must serialize (single writer).
//
//soral:hotpath
func (s *Series) Record(tns int64, v float64) {
	i := s.head.Load()
	slot := int(i % int64(len(s.ts)))
	s.seq[slot].Store(0)
	s.ts[slot].Store(tns)
	s.vs[slot].Store(math.Float64bits(v))
	s.seq[slot].Store(i + 1)
	s.head.Store(i + 1)
}

// Len returns the number of retained points (≤ capacity).
func (s *Series) Len() int {
	n := s.head.Load()
	if c := int64(len(s.ts)); n > c {
		return int(c)
	}
	return int(n)
}

// Latest returns the most recent point (false when empty).
func (s *Series) Latest() (obs.TSPoint, bool) {
	pts := s.Since(math.MinInt64)
	if len(pts) == 0 {
		return obs.TSPoint{}, false
	}
	return pts[len(pts)-1], true
}

// Since returns the retained points with TNS >= sinceNS, oldest first. The
// read is optimistic: a point is kept only if its slot's sequence stamp
// names it both before and after the loads. The writer clears the stamp
// before it touches a slot and sets it after, so a point the writer
// overwrote mid-read is discarded and a torn point is never returned.
func (s *Series) Since(sinceNS int64) []obs.TSPoint {
	h := s.head.Load()
	if h == 0 {
		return nil
	}
	c := int64(len(s.ts))
	lo := int64(0)
	if h > c {
		lo = h - c
	}
	pts := make([]obs.TSPoint, 0, h-lo)
	for i := lo; i < h; i++ {
		slot := int(i % c)
		if s.seq[slot].Load() != i+1 {
			continue
		}
		t := s.ts[slot].Load()
		v := math.Float64frombits(s.vs[slot].Load())
		if s.seq[slot].Load() != i+1 {
			continue
		}
		if t >= sinceNS {
			pts = append(pts, obs.TSPoint{TNS: t, V: v})
		}
	}
	return pts
}

// Options configures a DB's per-series rings.
type Options struct {
	// Resolution is the intended sampling period (default 1s). The store
	// does not enforce it — the sampler's ticker does — but capacity is
	// derived from it.
	Resolution time.Duration
	// Retention is the window each series must cover (default 15m).
	// Capacity = Retention / Resolution, floored at 16 points.
	Retention time.Duration
}

// DB is a set of named series sharing one ring capacity. Series are created
// on first Record through the DB and live for the process lifetime; memory
// is bounded by (number of distinct metric names) × capacity.
type DB struct {
	mu     sync.RWMutex
	series map[string]*Series
	cap    int
	opts   Options
}

// New returns an empty store. Zero options select 1s resolution and 15m
// retention (900 points per series).
func New(opts Options) *DB {
	if opts.Resolution <= 0 {
		opts.Resolution = time.Second
	}
	if opts.Retention <= 0 {
		opts.Retention = 15 * time.Minute
	}
	capacity := int(opts.Retention / opts.Resolution)
	if capacity < 16 {
		capacity = 16
	}
	return &DB{series: map[string]*Series{}, cap: capacity, opts: opts}
}

// Resolution returns the configured sampling period.
func (db *DB) Resolution() time.Duration { return db.opts.Resolution }

// Capacity returns the per-series ring size.
func (db *DB) Capacity() int { return db.cap }

// Series returns (creating if needed) the named series. The sampler caches
// nothing — creation takes the write lock only on first sight of a name, so
// steady-state ticks stay on the read lock.
func (db *DB) Series(name string) *Series {
	db.mu.RLock()
	s := db.series[name]
	db.mu.RUnlock()
	if s != nil {
		return s
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if s = db.series[name]; s == nil {
		s = newSeries(name, db.cap)
		db.series[name] = s
	}
	return s
}

// Get returns the named series or nil when it was never recorded.
func (db *DB) Get(name string) *Series {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.series[name]
}

// MetricNames lists the stored series, sorted. Part of obs.TimeseriesSource.
func (db *DB) MetricNames() []string {
	db.mu.RLock()
	names := make([]string, 0, len(db.series))
	for name := range db.series {
		names = append(names, name)
	}
	db.mu.RUnlock()
	sort.Strings(names)
	return names
}

// QuerySince returns one series' retained points with TNS >= sinceNS, oldest
// first (nil for unknown series). Part of obs.TimeseriesSource.
func (db *DB) QuerySince(metric string, sinceNS int64) []obs.TSPoint {
	s := db.Get(metric)
	if s == nil {
		return nil
	}
	return s.Since(sinceNS)
}
