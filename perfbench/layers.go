package main

import (
	"time"

	"soral/internal/core"
	"soral/internal/lp"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/obs/attr"
	"soral/internal/obs/hist"
	"soral/internal/obs/tsdb"
	"soral/internal/staircase"
)

// Registry names the traced run reads. Only the program's `latency.*`
// histogram family and its counters are read, never the `span.*`
// reservoir summaries.
const (
	histSlot      = "latency.core.slot.seconds"
	histSolve     = "latency.core.solve.seconds"
	histAssemble  = "latency.core.assemble.seconds"
	histFactorize = "latency.convex.factorize.seconds"
	histCommit    = "latency.core.commit.seconds"
	ctrNewton     = "convex.newton.iterations"
	ctrIPM        = "lp.mehrotra.iterations"
)

// ticksPerPass is how many sampler ticks the traced run times after each
// online-warm-durable pass.
const ticksPerPass = 4

// layerStats accumulates the traced phase's per-layer measurements over its
// passes: the program's own histograms and counters, read from each pass's
// registry, and the benchmark's outside timings of single layer calls.
type layerStats struct {
	hists    map[string]*hist.Hist
	counters map[string]int64

	// Outside timings, seconds per call.
	buildP2, attrSlot, buildP1, stairSolve, tick, jwrite, jsync []float64

	slots, warm, cacheHits, cold, recovered, degraded int
	plans                                             int
	journalBytes                                      int
	feedDropped                                       int64
}

func newLayerStats() *layerStats {
	return &layerStats{hists: map[string]*hist.Hist{}, counters: map[string]int64{}}
}

// addRegistry merges one pass's registry into the totals.
func (l *layerStats) addRegistry(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.EachLatency(func(name string, h *hist.Hist) {
		agg, ok := l.hists[name]
		if !ok {
			agg = hist.New()
			l.hists[name] = agg
		}
		agg.Merge(h)
	})
	reg.EachCounter(func(name string, v int64) { l.counters[name] += v })
}

// addReport tallies one online pass's per-slot outcomes.
func (l *layerStats) addReport(rep *core.Report) {
	for _, sr := range rep.Slots {
		l.slots++
		switch {
		case sr.Rung == core.RungCache:
			l.cacheHits++
		case sr.Warm:
			l.warm++
		default:
			l.cold++
		}
		switch sr.Status {
		case core.SlotRecovered:
			l.recovered++
		case core.SlotDegraded:
			l.degraded++
		}
	}
}

// addJournal tallies one pass's journal I/O.
func (l *layerStats) addJournal(tf *timedFile, dropped int64) {
	if tf != nil {
		l.jwrite = append(l.jwrite, tf.writes...)
		l.jsync = append(l.jsync, tf.syncs...)
		l.journalBytes += tf.bytes
	}
	l.feedDropped += dropped
}

// timeOnline times, from outside core.Online, the P2 assembly and the cost
// attribution of the slot just committed.
func (l *layerStats) timeOnline(tr *tracer, net *model.Network, in *model.Inputs, t int, prev, dec *model.Decision, params core.Params) error {
	id := tr.start("core.BuildP2")
	start := time.Now()
	_, err := core.BuildP2(net, in, t, prev, params)
	l.buildP2 = append(l.buildP2, time.Since(start).Seconds())
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.start("attr.Attribute")
	start = time.Now()
	attr.Attribute(net, in, t, prev, dec)
	l.attrSlot = append(l.attrSlot, time.Since(start).Seconds())
	tr.end(id)
	return nil
}

// timePlan times, from outside the planner, the P1 assembly and the
// staircase solve of the window just planned. cache is the outside
// timings' own backend cache, reused across a pass's days like the
// planner's.
func (l *layerStats) timePlan(tr *tracer, cache *staircase.Cache, net *model.Network, win *model.Inputs, opts lp.Options) {
	l.plans++
	id := tr.start("model.BuildP1")
	start := time.Now()
	lay, err := model.BuildP1(net, win, nil, nil)
	l.buildP1 = append(l.buildP1, time.Since(start).Seconds())
	tr.end(id)
	if err != nil {
		return
	}
	id = tr.start("staircase.SolveCached")
	start = time.Now()
	_, _ = staircase.SolveCached(cache, lay.Prob, lay.SlotOfCons, lay.SlotOfVar, lay.W, opts)
	l.stairSolve = append(l.stairSolve, time.Since(start).Seconds())
	tr.end(id)
}

// timeTicks times ticksPerPass sampler ticks (with the alert engine's Eval
// attached) once the sampler goroutine has stopped.
func (l *layerStats) timeTicks(tr *tracer, s *tsdb.Sampler) {
	for i := 0; i < ticksPerPass; i++ {
		id := tr.start("tsdb.Sampler.Tick")
		start := time.Now()
		s.Tick(start)
		l.tick = append(l.tick, time.Since(start).Seconds())
		tr.end(id)
	}
}

// histSum returns the summed seconds of a merged latency histogram.
func (l *layerStats) histSum(name string) float64 {
	if h, ok := l.hists[name]; ok {
		return h.Sum()
	}
	return 0
}

// histCount returns the observation count of a merged latency histogram.
func (l *layerStats) histCount(name string) int64 {
	if h, ok := l.hists[name]; ok {
		return h.Count()
	}
	return 0
}

// histP50 returns the median of a merged latency histogram, in seconds.
func (l *layerStats) histP50(name string) float64 {
	if h, ok := l.hists[name]; ok && h.Count() > 0 {
		return h.Quantile(0.5)
	}
	return 0
}

// ratio returns a/b for a positive b, else 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// median returns the median of xs, or 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, 0.5)
}

// metrics converts the totals into the traced run's layer metrics. The
// caller adds those that compare phases.
func (l *layerStats) metrics(m metricSet) {
	slots := float64(l.slots)
	plans := float64(l.plans)
	m.add("model.build_p2_us", median(l.buildP2)*1e6, "us")
	m.add("attr.slot_us", median(l.attrSlot)*1e6, "us")
	m.add("model.build_p1_ms", median(l.buildP1)*1e3, "ms")
	m.add("staircase.solve_ms", median(l.stairSolve)*1e3, "ms")
	m.add("lp.ipm_iters_per_plan", ratio(float64(l.counters[ctrIPM]), plans), "count")
	m.add("staircase.cache_hit_frac", ratio(float64(l.counters[obs.MetricWarmStairHits]), plans), "frac")

	slotSum := l.histSum(histSlot)
	m.add("convex.newton_iters_per_slot", ratio(float64(l.counters[ctrNewton]), slots), "count")
	m.add("convex.factorizations_per_slot", ratio(float64(l.histCount(histFactorize)), slots), "count")
	m.add("linalg.factorize_share", ratio(l.histSum(histFactorize), slotSum), "frac")
	nonfactor := l.histSum(histSolve) - l.histSum(histFactorize) - l.histSum(histAssemble)
	m.add("convex.nonfactor_share", ratio(nonfactor, slotSum), "frac")

	m.add("core.warm_frac", ratio(float64(l.warm), slots), "frac")
	m.add("core.cache_hit_frac", ratio(float64(l.cacheHits), slots), "frac")
	m.add("core.cold_fallback_frac", ratio(float64(l.cold), slots), "frac")
	m.add("core.solve_ms", l.histP50(histSolve)*1e3, "ms")
	m.add("core.commit_us", l.histP50(histCommit)*1e6, "us")
	m.add("resilience.recovered_frac", ratio(float64(l.recovered), slots), "frac")
	m.add("resilience.degraded_frac", ratio(float64(l.degraded), slots), "frac")

	m.add("journal.write_us", median(l.jwrite)*1e6, "us")
	m.add("journal.fsync_us", median(l.jsync)*1e6, "us")
	m.add("journal.bytes_per_slot", ratio(float64(l.journalBytes), slots), "B")
	m.add("journal.records_per_slot", ratio(float64(len(l.jwrite)), slots), "count")
	m.add("journal.fsyncs_per_slot", ratio(float64(len(l.jsync)), slots), "count")
	m.add("journal.feed_dropped", float64(l.feedDropped), "count")
	m.add("tsdb.tick_us", median(l.tick)*1e6, "us")
}
