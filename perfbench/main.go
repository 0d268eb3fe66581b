// Command perfbench is the repository's benchmark: it drives three
// workloads through the public entry points of the layers and prints one
// JSON result line with the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1). See README.md for the workloads, the op definitions,
// the statistics and what each layer metric should move.
//
//	bash perfbench/run.sh --workload online-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"soral/internal/model"
)

// minPasses is the fewest passes a phase runs, however short -seconds is.
const minPasses = 3

// bench is one run of one workload.
type bench struct {
	wl   *workloadDef
	seed int64
	inst []byte    // the generated instance in its JSON form
	dir  string    // where journals and the span file go
	log  io.Writer // diagnostics: failed checks and the run summary

	// tr and layers are set only during the traced phase.
	tr     *tracer
	layers *layerStats

	attempted, failed int
	fpCalib, chainCal []float64 // seconds per calibration loop

	// ref is the first pass of the run: every later pass of every phase
	// must commit the same decisions and the same cache hits.
	ref *passResult
}

// phase is one measured phase's passes and outputs.
type phase struct {
	passes  []*passResult
	sum     summary
	gcPerOp float64
}

func main() {
	name := flag.String("workload", "", "workload: online-cold | online-warm-durable | dayahead-lp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "seconds the plain phase runs (each extra traced phase half as long)")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	dir := flag.String("dir", ".bench_build", "directory for journals and the span file")
	flag.Parse()

	res, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func run(name string, seed int64, budget time.Duration, traced bool, dir string) (*result, error) {
	var wl *workloadDef
	for _, w := range workloads {
		if w.name == name {
			wl = w
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{wl: wl, seed: seed, dir: dir, log: os.Stderr}
	scen, err := wl.build(seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := model.WriteInstance(&buf, scen.Net, scen.In); err != nil {
		return nil, err
	}
	b.inst = buf.Bytes()

	metrics := metricSet{}
	plain, err := b.measure(variant{}, budget)
	if err != nil {
		return nil, err
	}
	if !traced {
		s := plain.sum
		metrics.add("op_p50_ms", s.p50*1e3, "ms")
		metrics.add("op_p90_ms", s.p90*1e3, "ms")
		metrics.add("ops_per_s", s.opsPerS, "1/s")
		metrics.add("setup_s", s.setup, "s")
		metrics.add("alloc_kb_per_op", plain.allocKBPerOp(), "KiB")
		metrics.add("max_rss_mb", maxRSSMB(), "MiB")
		metrics.add("total_cost", plain.passes[0].cost, "cost")
	} else if err := b.traceLayers(plain, budget, metrics); err != nil {
		return nil, err
	}
	p90Label := "p90"
	if !plain.sum.p90True {
		p90Label = "slowest op (fewer than 100 ops per pass)"
	}
	fmt.Fprintf(b.log, "%s seed %d: %d passes × %d ops (%s across passes); p50 %.4f ms, %s %.4f ms, %.2f ops/s, setup %.6f s; calibration fp %.3f ms (min %.3f), chain %.3f ms (min %.3f) (median of %d)\n",
		name, seed, plain.sum.passes, plain.sum.ops, wl.stat, plain.sum.p50*1e3, p90Label, plain.sum.p90*1e3,
		plain.sum.opsPerS, plain.sum.setup, median(b.fpCalib)*1e3, quantile(b.fpCalib, 0)*1e3,
		median(b.chainCal)*1e3, quantile(b.chainCal, 0)*1e3, len(b.fpCalib))
	fmt.Fprintf(b.log, "representative op latency deciles (ms):")
	for q := 1; q < 10; q++ {
		fmt.Fprintf(b.log, " %.3f", quantile(plain.sum.reps, float64(q)/10)*1e3)
	}
	fmt.Fprintln(b.log)
	return &result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// traceLayers runs the traced run's extra phases after the plain one, each
// half as long, and fills the per-layer metrics: a traced phase (registry
// attached, spans recorded, layers timed from outside), a serial phase
// (Workers=1) and, on a workload with a commit path, a detached phase
// without it.
func (b *bench) traceLayers(plain *phase, budget time.Duration, metrics metricSet) error {
	const builds = 5
	var buildTimes []float64
	for i := 0; i < builds; i++ {
		start := time.Now()
		if _, err := b.wl.build(b.seed); err != nil {
			return err
		}
		buildTimes = append(buildTimes, time.Since(start).Seconds())
	}
	metrics.add("eval.build_ms", median(buildTimes)*1e3, "ms")

	b.tr, b.layers = newTracer(), newLayerStats()
	tracedPh, err := b.measure(variant{traced: true}, budget/2)
	if err != nil {
		return err
	}
	b.layers.metrics(metrics)
	spanPath := filepath.Join(b.dir, fmt.Sprintf("spans-%s-%d.json", b.wl.name, b.seed))
	if err := b.tr.write(spanPath); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "spans: %s\n", spanPath)
	b.tr, b.layers = nil, nil

	serial, err := b.measure(variant{serial: true}, budget/2)
	if err != nil {
		return err
	}
	metrics.add("linalg.parallel_speedup", ratio(plain.sum.opsPerS, serial.sum.opsPerS), "ratio")
	metrics.add("obs.tracing_overhead_frac", ratio(tracedPh.sum.p50, plain.sum.p50)-1, "frac")
	share := 0.0
	if b.wl.commitPath {
		detached, err := b.measure(variant{detached: true}, budget/2)
		if err != nil {
			return err
		}
		share = 1 - ratio(detached.sum.p50, plain.sum.p50)
	}
	metrics.add("obs.commit_path_share", share, "frac")
	metrics.add("runtime.gc_cycles_per_kop", plain.gcPerOp*1e3, "count")
	metrics.add("host.fp_calib_ms", median(b.fpCalib)*1e3, "ms")
	metrics.add("host.chain_calib_ms", median(b.chainCal)*1e3, "ms")
	return nil
}

// measure runs passes of the workload in variant v until budget has
// elapsed (and at least minPasses), timing the two calibration loops and
// collecting garbage before each pass. It checks that every pass committed
// the same decisions and cache hits as the first, counting each
// divergence as a failed op.
func (b *bench) measure(v variant, budget time.Duration) (*phase, error) {
	ph := &phase{}
	start := time.Now()
	for len(ph.passes) < minPasses || time.Since(start) < budget {
		b.fpCalib = append(b.fpCalib, fpCalib().Seconds())
		b.chainCal = append(b.chainCal, chainCalib().Seconds())
		runtime.GC()
		p, err := b.wl.pass(b, v)
		if err != nil {
			return nil, err
		}
		ph.passes = append(ph.passes, p)
	}
	if b.ref == nil {
		b.ref = ph.passes[0]
	}
	ref := b.ref
	timings := make([]pass, len(ph.passes))
	var ops int
	var gc uint32
	for i, p := range ph.passes {
		timings[i] = p.pass
		b.attempted += len(p.ops)
		b.failed += p.failed
		ops += len(p.ops)
		gc += p.gcCycles
		for op, d := range p.digests {
			if op >= len(ref.digests) || d != ref.digests[op] {
				b.failed++
				fmt.Fprintf(b.log, "pass %d op %d: decisions diverge from pass 0\n", i, op)
			}
		}
		if p.cacheHits != ref.cacheHits {
			b.failed++
			fmt.Fprintf(b.log, "%+v pass %d: %d cache hits, the run's first pass had %d\n", v, i, p.cacheHits, ref.cacheHits)
		}
	}
	ph.sum = summarize(timings, b.wl.stat)
	ph.gcPerOp = ratio(float64(gc), float64(ops))
	return ph, nil
}

// allocKBPerOp is the median across passes of the bytes allocated per op.
func (ph *phase) allocKBPerOp() float64 {
	per := make([]float64, len(ph.passes))
	for i, p := range ph.passes {
		per[i] = ratio(float64(p.allocBytes), float64(len(p.ops))) / 1024
	}
	return median(per)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
