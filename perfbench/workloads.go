package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"soral/internal/control"
	"soral/internal/core"
	"soral/internal/eval"
	"soral/internal/model"
	"soral/internal/obs"
	"soral/internal/obs/journal"
	"soral/internal/staircase"
	"soral/internal/workload"
)

const (
	// eps is the paper's regularization ε = ε′ (eval.NewSuite's default).
	eps = 1e-2
	// feasTol is the absolute slot-feasibility tolerance every committed
	// decision must meet (the online ladder accepts rungs at the same).
	feasTol = 1e-4
	// costRelTol is how closely a journal's footer and slot records must
	// reconcile with model.Accountant's cost of the committed decisions.
	costRelTol = 1e-9
	// planRelTol is how closely a plan's LP objective must reconcile with
	// model.Accountant's cost of its extracted decisions. The interior
	// point stops at relative residuals of 1e-8, but the auxiliaries that
	// linearize each reconfiguration's positive part may exceed it by the
	// remaining complementarity slack: about 5e-6 relative in practice.
	planRelTol = 1e-4

	coldSlots    = 100 // online-cold ops per pass: the fewest with a true p90
	durableSlots = 200 // online-warm-durable ops per pass
	planDays     = 8   // dayahead-lp ops per pass
	planWindow   = 24  // slots per day-ahead plan
	plateaus     = 4   // online-warm-durable demand levels per peak
)

// workloadDef is one benchmark workload: how its instance follows from the
// seed, the statistic its ops take across passes, and one pass.
type workloadDef struct {
	name  string
	stat  statistic
	build func(seed int64) (*eval.Scenario, error)
	pass  func(b *bench, v variant) (*passResult, error)
	// commitPath reports that the workload runs the durable commit path,
	// which the traced run's detached phase takes away.
	commitPath bool
}

var workloads = []*workloadDef{
	{
		name: "online-cold",
		stat: statMin,
		build: func(seed int64) (*eval.Scenario, error) {
			return eval.Build(eval.ScenarioSpec{NumTier2: 6, NumTier1: 12, K: 2, T: coldSlots,
				Trace: eval.TraceWikipedia, Seed: seed, ReconfWeight: 10})
		},
		pass: func(b *bench, v variant) (*passResult, error) { return b.onlinePass(false, false, v) },
	},
	{
		name: "online-warm-durable",
		stat: statMin,
		build: func(seed int64) (*eval.Scenario, error) {
			trace := workload.Wikipedia(durableSlots, seed)
			for t, x := range trace {
				trace[t] = math.Ceil(x*plateaus) / plateaus
			}
			return eval.Build(eval.ScenarioSpec{NumTier2: 3, NumTier1: 6, K: 2, T: durableSlots,
				Seed: seed, ReconfWeight: 10, ConstPrice: true, CustomTrace: trace})
		},
		pass:       func(b *bench, v variant) (*passResult, error) { return b.onlinePass(true, !v.detached, v) },
		commitPath: true,
	},
	{
		name:  "dayahead-lp",
		stat:  statMedian,
		build: buildDayahead,
		pass:  (*bench).dayaheadPass,
	},
}

// buildDayahead builds the dayahead-lp instance: 4 tier-2 × 8 tier-1
// clouds whose demands are independent World Cup traces (one sub-seed per
// tier-1 cloud), so bursts do not coincide across clouds and the pass's
// total cost averages eight bursty series instead of one.
func buildDayahead(seed int64) (*eval.Scenario, error) {
	const numTier1 = 8
	T := planDays * planWindow
	scen, err := eval.Build(eval.ScenarioSpec{NumTier2: 4, NumTier1: numTier1, K: 2, T: T,
		Trace: eval.TraceWorldCup, Seed: seed, ReconfWeight: 1000})
	if err != nil {
		return nil, err
	}
	for j := 0; j < numTier1; j++ {
		trace := workload.WorldCup(T, seed*numTier1+int64(j))
		workload.Normalize(trace, scen.Spec.PeakLoad)
		for t, v := range trace {
			scen.In.Workload[t][j] = v
		}
	}
	if err := scen.In.CheckFeasibility(scen.Net); err != nil {
		return nil, err
	}
	return scen, nil
}

// variant selects how a measured phase drives the workload.
type variant struct {
	// traced attaches an obs.Registry, records spans and times layer calls
	// from outside.
	traced bool
	// serial runs every solver kernel at Workers=1.
	serial bool
	// detached runs online-warm-durable without its journal, feed,
	// registry and watchdog.
	detached bool
}

// passResult is one pass's timings and outputs.
type passResult struct {
	pass
	digests    []string // one decision (or plan) digest per op
	cost       float64
	cacheHits  int
	failed     int
	allocBytes uint64
	gcCycles   uint32
}

// memCounters reads the process's cumulative allocation and GC counts.
func memCounters() (uint64, uint32) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.NumGC
}

// onlinePass runs one pass of an online workload from fresh state: the
// instance is read from its JSON form, and core.Online, its warm-start
// state and decision cache, and (when durable) the journal file, feed and
// watchdog are all new.
func (b *bench) onlinePass(warm, durable bool, v variant) (*passResult, error) {
	tr := b.tr
	defer tr.end(tr.start("pass"))
	setupSpan := tr.start("setup")
	t0 := time.Now()
	net, in, err := model.ReadInstance(bytes.NewReader(b.inst))
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.Params = core.Params{EpsT2: eps, EpsNet: eps, EpsT1: eps}
	opts.WarmStart = warm
	if v.serial {
		opts.Solver.Workers = 1
	}
	var reg *obs.Registry
	if durable || v.traced {
		reg = obs.NewRegistry()
		opts.Obs = obs.NewScope(reg, nil)
	}
	var d *durablePath
	if durable {
		if d, err = openDurable(b.journalPath(), reg, &opts, tr); err != nil {
			return nil, err
		}
		defer d.abort()
	}
	o, err := core.NewOnline(net, in, opts)
	if err != nil {
		return nil, err
	}
	res := &passResult{pass: pass{setup: time.Since(t0).Seconds(), ops: make([]float64, in.T)}}
	tr.end(setupSpan)

	decs := make([]*model.Decision, 0, in.T)
	alloc0, gc0 := memCounters()
	for t := 0; t < in.T; t++ {
		tr.setOp(t)
		opSpan := tr.start("op")
		prev := o.Prev()
		stepSpan := tr.start("core.Online.Step")
		start := time.Now()
		dec, err := o.Step()
		res.ops[t] = time.Since(start).Seconds()
		tr.end(stepSpan)
		if err != nil {
			tr.end(opSpan)
			for u := t + 1; u < in.T; u++ {
				res.ops[u] = res.ops[t]
			}
			res.failed += in.T - t
			fmt.Fprintf(b.log, "slot %d: %v\n", t, err)
			break
		}
		if b.layers != nil {
			if err := b.layers.timeOnline(tr, net, in, t, prev, dec, opts.Params); err != nil {
				res.failed++
				fmt.Fprintf(b.log, "slot %d: BuildP2: %v\n", t, err)
			}
		}
		tr.end(opSpan)
		if ok, v := dec.FeasibleAt(net, in.Workload[t], feasTol); !ok {
			res.failed++
			fmt.Fprintf(b.log, "slot %d: decision infeasible by %g\n", t, v)
		}
		decs = append(decs, dec)
	}
	alloc1, gc1 := memCounters()
	tr.setOp(-1)
	res.allocBytes, res.gcCycles = alloc1-alloc0, gc1-gc0

	rep := o.Report()
	for _, sr := range rep.Slots {
		switch {
		case sr.Status == core.SlotDegraded:
			res.failed++
			fmt.Fprintf(b.log, "slot %d: degraded (%s)\n", sr.Slot, sr.Rung)
		case sr.Rung == core.RungCache:
			res.cacheHits++
		}
	}
	res.digests = make([]string, len(decs))
	for t, dec := range decs {
		res.digests[t] = journal.Digest(dec.X, dec.Y, dec.Z)
	}
	acct := model.Accountant{Net: net, In: in}
	res.cost = acct.SequenceCost(decs, nil).Total()
	if b.layers != nil {
		b.layers.addReport(rep)
		b.layers.addRegistry(reg)
	}
	if d != nil {
		res.failed += d.finish(res, b.layers, b.log)
	}
	return res, nil
}

// dayaheadPass plans planDays consecutive days, one control.Offline call
// per 24-slot window, from fresh state: the instance is read from its JSON
// form and the staircase backend cache is new (and reused across the
// pass's days).
func (b *bench) dayaheadPass(v variant) (*passResult, error) {
	tr := b.tr
	defer tr.end(tr.start("pass"))
	setupSpan := tr.start("setup")
	t0 := time.Now()
	net, in, err := model.ReadInstance(bytes.NewReader(b.inst))
	if err != nil {
		return nil, err
	}
	base := control.Config{Net: net, StairCache: staircase.NewCache()}
	if v.serial {
		base.LPOpts.Workers = 1
	}
	var reg *obs.Registry
	if v.traced {
		reg = obs.NewRegistry()
		base.Obs = obs.NewScope(reg, nil)
	}
	days := in.T / planWindow
	res := &passResult{pass: pass{setup: time.Since(t0).Seconds(), ops: make([]float64, days)},
		digests: make([]string, days)}
	tr.end(setupSpan)

	var outside *staircase.Cache
	if b.layers != nil {
		outside = staircase.NewCache()
	}
	alloc0, gc0 := memCounters()
	for day := 0; day < days; day++ {
		tr.setOp(day)
		opSpan := tr.start("op")
		cfg := base
		cfg.In = in.Window(day*planWindow, planWindow)
		planSpan := tr.start("control.Offline")
		start := time.Now()
		decs, obj, err := control.Offline(&cfg)
		res.ops[day] = time.Since(start).Seconds()
		tr.end(planSpan)
		if b.layers != nil {
			b.layers.timePlan(tr, outside, net, cfg.In, base.LPOpts)
		}
		tr.end(opSpan)
		if err != nil {
			res.failed++
			fmt.Fprintf(b.log, "day %d: %v\n", day, err)
			continue
		}
		cost, failed := checkPlan(net, cfg.In, decs, obj, b.log, day)
		res.cost += cost
		res.failed += failed
		groups := make([][]float64, 0, 3*len(decs))
		for _, dec := range decs {
			groups = append(groups, dec.X, dec.Y, dec.Z)
		}
		res.digests[day] = journal.Digest(groups...)
	}
	alloc1, gc1 := memCounters()
	tr.setOp(-1)
	res.allocBytes, res.gcCycles = alloc1-alloc0, gc1-gc0
	if b.layers != nil {
		b.layers.addRegistry(reg)
	}
	return res, nil
}

// checkPlan verifies one day-ahead plan: every slot's decision is feasible
// for that slot's workload and the LP objective reconciles with the
// accountant's cost of the extracted decisions. It returns that cost and
// the number of failed checks.
func checkPlan(net *model.Network, win *model.Inputs, decs []*model.Decision, obj float64, log io.Writer, day int) (float64, int) {
	if len(decs) != win.T {
		fmt.Fprintf(log, "day %d: %d decisions for %d slots\n", day, len(decs), win.T)
		return 0, 1
	}
	failed := 0
	for t, dec := range decs {
		if ok, v := dec.FeasibleAt(net, win.Workload[t], feasTol); !ok {
			failed++
			fmt.Fprintf(log, "day %d slot %d: plan infeasible by %g\n", day, t, v)
		}
	}
	acct := model.Accountant{Net: net, In: win}
	cost := acct.SequenceCost(decs, nil).Total()
	if !closeTo(cost, obj, planRelTol) {
		failed++
		fmt.Fprintf(log, "day %d: objective %g does not reconcile with cost %g\n", day, obj, cost)
	}
	return cost, failed
}

// closeTo reports |a−b| ≤ rel·max(1, |a|, |b|).
func closeTo(a, b, rel float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= rel*scale
}
