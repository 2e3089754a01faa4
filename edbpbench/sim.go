package main

// The sim workloads: sim.Run on one goroutine over three kernels × all
// twelve schemes under one harvest regime, repeated in whole sweeps until
// the measured time is spent.

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"edbp/internal/energy"
	"edbp/internal/sim"
	"edbp/internal/trace"
	"edbp/internal/workload"
)

// simKernels: crc32 streams 160 KB through a 4 KB D-cache, cjpeg is
// memory-heavy but mostly cache-resident, dijkstra is branchy.
var simKernels = []string{"crc32", "cjpeg", "dijkstra"}

const (
	simScale      = 1.0
	setupReps     = 21 // set-up repetitions; setup_s is their median
	minSweeps     = 4  // every harvest trace once; ≥ 100 runs for the cold p90
	harvestTraces = 4  // harvest traces a run cycles through
	refSamples    = 3  // runs replayed through sim.RunReference per workload run
	// steadyPowerW is the constant supply of the LRU-model runs: far above
	// the paper's 2.58 mW average draw, so they never lose power.
	steadyPowerW = 50e-3
)

// kernel is one recorded workload with what the checks need of it.
type kernel struct {
	name   string
	scale  float64
	trace  *workload.Trace
	counts traceCounts
	lru    [2]uint64 // LRU-model D-cache hits, misses; computed on first use
	lruSet bool
}

func (k *kernel) lruCounts() (uint64, uint64) {
	if !k.lruSet {
		k.lru[0], k.lru[1] = lruCounts(k.trace.Events)
		k.lruSet = true
	}
	return k.lru[0], k.lru[1]
}

// setupKernels records the kernels and generates the harvest trace
// setupReps times, reports the median, and checks the recorded traces.
func setupKernels(r *run, apps []string, scale float64, kind energy.TraceKind, seed uint64) ([]*kernel, setupTimes) {
	var st setupTimes
	var ks []*kernel
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		ks = ks[:0]
		for _, name := range apps {
			app, err := workload.ByName(name)
			if err != nil {
				panic(err) // the kernel list is fixed in this file
			}
			ks = append(ks, &kernel{name: name, scale: scale, trace: app.Record(scale)})
		}
		t1 := time.Now()
		energy.NewTrace(kind, harvestSeed(seed, 0))
		t2 := time.Now()
		st.total = append(st.total, t2.Sub(t0).Seconds())
		st.record = append(st.record, ms(t1.Sub(t0)))
		st.traceGen = append(st.traceGen, ms(t2.Sub(t1)))
	}
	energy.CachedTrace(kind, harvestSeed(seed, 0)) // sim.Run draws the harvest from this cache

	for _, k := range ks {
		r.attempted++
		var err error
		k.counts, err = checkTrace(k.trace)
		r.check("trace recount", err)
		if k.name == "crc32" {
			r.attempted++
			r.check("crc32 checksum", checkChecksum(crc32Input(scale), k.trace.Checksum))
		}
	}
	return ks, st
}

type setupTimes struct{ total, record, traceGen []float64 }

// harvestSeed is the harvest trace seed of repetition rep. A run cycles
// through harvestTraces traces, so its figures average over several
// outage patterns rather than hang on one trace's, while the traces and
// distinct results a run keeps stay bounded.
func harvestSeed(seed uint64, rep int) uint64 { return seed<<16 | uint64(rep%harvestTraces) }

// schemeOrder is repetition rep's scheme order: a stride through the
// twelve schemes, the stride and start changing with rep, so that no
// scheme is always run right after the same one.
func schemeOrder(rep int) []sim.Scheme {
	strides := [...]int{1, 5, 7, 11} // coprime to 12: each is a permutation
	n := len(sim.Schemes)
	stride, start := strides[rep%len(strides)], rep/len(strides)
	out := make([]sim.Scheme, n)
	for i := range out {
		out[i] = sim.Schemes[(start+i*stride)%n]
	}
	return out
}

// simAcc accumulates one phase's sweeps.
type simAcc struct {
	runs        int
	events      uint64
	sweepTime   time.Duration
	cold        []float64 // per-run latency, ms
	schemeTime  map[sim.Scheme]time.Duration
	schemeEvent map[sim.Scheme]uint64
	first       []*sim.Result // the first sweep's checked results
	outages     uint64
	lruChecked  int // runs checked against the LRU model
	// Per-sweep rates; the reported rates are their medians, which a
	// burst of load from outside the benchmark moves less than a mean.
	eventRates, runRates []float64
}

func newSimAcc() *simAcc {
	return &simAcc{schemeTime: map[sim.Scheme]time.Duration{}, schemeEvent: map[sim.Scheme]uint64{}}
}

func (a *simAcc) nsPerEvent() float64 { return float64(a.sweepTime.Nanoseconds()) / float64(a.events) }

// sweep runs every kernel under every scheme once, in repetition rep's
// order, and checks each result after the sweep.
func sweep(r *run, ks []*kernel, kind energy.TraceKind, seed uint64, rep int, rec *trace.Recorder, a *simAcc) {
	order := schemeOrder(rep)
	seed = harvestSeed(seed, rep)
	energy.CachedTrace(kind, seed) // generated here, not in the first timed run
	var results []*sim.Result
	type checkItem struct {
		k   *kernel
		res *sim.Result
		err error
	}
	var items []checkItem
	for _, k := range ks {
		for _, s := range order {
			cfg := simConfig(k, s, kind, seed)
			cfg.Recorder = rec
			t0 := time.Now()
			res, err := sim.Run(cfg)
			d := time.Since(t0)
			r.attempted++
			a.runs++
			a.sweepTime += d
			a.cold = append(a.cold, ms(d))
			n := uint64(len(k.trace.Events))
			a.events += n
			a.schemeTime[s] += d
			a.schemeEvent[s] += n
			// Checks that read the recorder's summary must run before the
			// next run resets it, but outside the timed call.
			if err == nil {
				err = checkInvariants(res)
			}
			items = append(items, checkItem{k, res, err})
		}
	}
	for _, it := range items {
		if it.err != nil {
			r.fail("%s: %v", it.k.name, it.err)
			continue
		}
		res := it.res
		res.TraceSummary = nil // the recorder behind it has moved on
		if err := checkResult(res, it.k.counts); err != nil {
			r.fail("%s/%s: %v", it.k.name, res.Config.Scheme, err)
			continue
		}
		if lruApplies(res) {
			a.lruChecked++
			h, m := it.k.lruCounts()
			if err := checkLRU(res, h, m); err != nil {
				r.fail("%s/%s: %v", it.k.name, res.Config.Scheme, err)
				continue
			}
		}
		a.outages += uint64(res.Outages)
		results = append(results, res)
	}
	if a.first == nil {
		a.first = results
	}
}

func simConfig(k *kernel, s sim.Scheme, kind energy.TraceKind, seed uint64) sim.Config {
	cfg := sim.Default(k.name, s)
	cfg.Scale = k.scale
	cfg.Trace = k.trace
	cfg.TraceKind = kind
	cfg.SourceSeed = seed
	return cfg
}

// simWorkload is sim-rfhome or sim-solar.
func simWorkload(o opts, r *run, kind energy.TraceKind) error {
	ks, setup := setupKernels(r, simKernels, simScale, kind, o.seed)
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.traced {
		// Half the time untraced (ns/event per scheme, the overhead's
		// base), a fifth with the trace recorder attached, and the rest
		// for the layer replays.
		plain := newSimAcc()
		sweepsFor(r, ks, kind, o.seed, budget*45/100, minSweeps, nil, plain)
		rec := trace.NewRecorder(trace.Options{})
		traced := newSimAcc()
		sweepsFor(r, ks, kind, o.seed, budget*20/100, 1, rec, traced)
		reference(r, ks, kind, o.seed, plain.first)
		steadyLRU(r, ks, plain.lruChecked+traced.lruChecked)
		simLayers(r, ks, kind, o.seed, setup, plain, traced)
		return setColdTail(r, plain.cold)
	}

	a := newSimAcc()
	sweepsFor(r, ks, kind, o.seed, budget, minSweeps, nil, a)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	reference(r, ks, kind, o.seed, a.first)
	steadyLRU(r, ks, a.lruChecked)

	// A sweep is a grid of kernels × schemes and each sim.Run one request
	// to the library, so requests and grid cells per second are both runs
	// per second here.
	r.set("setup_s", median(setup.total), "s")
	r.set("peak_rss_mb", float64(ru.Maxrss)/1024, "MB")
	r.set("events_per_s", median(a.eventRates), "1/s")
	r.set("grid_cells_per_s", median(a.runRates), "1/s")
	r.set("requests_per_s", median(a.runRates), "1/s")
	r.set("run_cold_p50_ms", quantile(a.cold, 0.5), "ms")
	return nil
}

// steadyLRU checks the LRU model on runs that cannot lose power: Baseline
// and SDBP on every kernel under a constant steadyPowerW supply. Sweep runs
// qualify only when they happen to see no outage, which RFHome runs never
// do, so without these runs the check could cover nothing. It prints how
// many runs the model checked in all, sweeps included.
func steadyLRU(r *run, ks []*kernel, sweepChecked int) {
	checked := sweepChecked
	for _, k := range ks {
		for _, s := range []sim.Scheme{sim.Baseline, sim.SDBP} {
			cfg := simConfig(k, s, energy.Solar, 0)
			cfg.Source = energy.ConstantSource{P: steadyPowerW}
			r.attempted++
			res, err := sim.Run(cfg)
			if err == nil && !lruApplies(res) {
				err = fmt.Errorf("%d outages under a constant %g W supply", res.Outages, steadyPowerW)
			}
			if err == nil {
				checked++
				h, m := k.lruCounts()
				err = checkLRU(res, h, m)
			}
			r.check(fmt.Sprintf("steady-power LRU %s/%s", k.name, s), err)
		}
	}
	fmt.Printf("edbpbench checks: %d runs matched against the LRU model (%d from the sweeps)\n", checked, sweepChecked)
	if checked == 0 {
		r.fail("no run was checked against the LRU model")
	}
}

// setColdTail reports run_cold_p90_ms. Tails spread between runs of one
// commit by more than any regression bound could allow on a small shared
// host, so they are reported with the traced run's per-layer figures
// rather than gated.
func setColdTail(r *run, cold []float64) error {
	if !tailOK(len(cold), 0.9) {
		return fmt.Errorf("too few samples for the cold-run p90: %d", len(cold))
	}
	r.set("run_cold_p90_ms", quantile(cold, 0.9), "ms")
	return nil
}

// sweepsFor runs whole sweeps until budget is spent and at least min
// sweeps ran.
func sweepsFor(r *run, ks []*kernel, kind energy.TraceKind, seed uint64, budget time.Duration, min int, rec *trace.Recorder, a *simAcc) {
	start := time.Now()
	for rep := 0; rep < min || time.Since(start) < budget; rep++ {
		events, runs, busy := a.events, a.runs, a.sweepTime
		sweep(r, ks, kind, seed, rep, rec, a)
		d := a.sweepTime - busy
		a.eventRates = append(a.eventRates, float64(a.events-events)/d.Seconds())
		a.runRates = append(a.runRates, float64(a.runs-runs)/d.Seconds())
	}
}

// reference replays a seed-chosen sample of the sweep through the
// per-event reference stepper and compares it with the batched result.
func reference(r *run, ks []*kernel, kind energy.TraceKind, seed uint64, results []*sim.Result) {
	for i := 0; i < refSamples && len(results) > 0; i++ {
		res := results[int((seed*7+uint64(i)*13)%uint64(len(results)))]
		r.attempted++
		ref, err := sim.RunReference(context.Background(), res.Config)
		if err == nil {
			err = compareResults(res, ref)
		}
		r.check(fmt.Sprintf("reference replay %s/%s", res.Config.App, res.Config.Scheme), err)
	}
}
