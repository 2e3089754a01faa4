package main

// Per-layer costs, measured by replaying a workload's own inputs through
// each layer's public functions alone. A predictor's cost is what it adds
// to a D-cache access: the replay with the predictor attached minus the
// replay of the bare cache, each the fastest of layerReps.

import (
	"context"
	"strings"
	"time"

	"edbp/internal/cache"
	"edbp/internal/checkpoint"
	"edbp/internal/core"
	"edbp/internal/cpu"
	"edbp/internal/energy"
	"edbp/internal/predictor"
	"edbp/internal/sim"
	"edbp/internal/workload"
)

const (
	layerReps     = 3
	planSaveCalls = 64      // checkpoint plans per kernel, spread over the trace
	planSaveInner = 100     // calls timed together at each point
	maxVoltages   = 1 << 20 // OnVoltage samples kept per kernel
)

// predictorNames are the predictors measured alone; "core" is EDBP.
var predictorNames = []string{"decay", "amc", "sdbp", "counting", "reftrace", "core"}

func newPredictor(name string, ways int) predictor.Predictor {
	var (
		p   predictor.Predictor
		err error
	)
	switch name {
	case "decay":
		p, err = predictor.NewDecay(predictor.DefaultDecay())
	case "amc":
		p, err = predictor.NewAMC(predictor.DefaultAMC())
	case "sdbp":
		p, err = predictor.NewSDBP(predictor.DefaultSDBP())
	case "counting":
		p, err = predictor.NewCounting(predictor.DefaultCounting())
	case "reftrace":
		p, err = predictor.NewRefTrace(predictor.DefaultRefTrace())
	case "core":
		m := energy.DefaultMonitor()
		p, err = core.New(core.DefaultConfig(ways, m.VCkpt, m.VRst), ways)
	}
	if err != nil {
		panic(err) // default configurations are valid
	}
	return p
}

// schemeParts names the predictors a scheme runs on the D-cache.
var schemeParts = map[sim.Scheme][]string{
	sim.SDBP: {"sdbp"}, sim.Decay: {"decay"}, sim.AMC: {"amc"}, sim.Counting: {"counting"},
	sim.RefTrace: {"reftrace"}, sim.EDBP: {"core"}, sim.DecayEDBP: {"decay", "core"},
	sim.AMCEDBP: {"amc", "core"}, sim.CountingEDBP: {"counting", "core"}, sim.RefTraceEDBP: {"reftrace", "core"},
}

func dcacheConfig(power cache.PowerMode) cache.Config {
	return cache.Config{SizeBytes: 4096, BlockBytes: 16, Ways: 4, Policy: cache.LRU, Power: power}
}

// replayAccesses feeds a trace's loads and stores through a fresh D-cache
// and, when name is set, the named predictor; it returns the loop's time.
func replayAccesses(t *workload.Trace, name string) time.Duration {
	power := cache.AlwaysOn
	if name != "" && name != "sdbp" {
		power = cache.GateInvalid
	}
	c, err := cache.New(dcacheConfig(power))
	if err != nil {
		panic(err)
	}
	var pc uint32 = workload.CodeBase
	var p predictor.Predictor
	if name != "" {
		p = newPredictor(name, 4)
		p.Attach(predictor.Env{
			Cache:     c,
			GateBlock: func(set, way int) { c.Gate(set, way) },
			ClockHz:   cpu.Default().ClockHz,
			PC:        func() uint32 { return pc },
		})
	}
	var res cache.AccessResult
	t0 := time.Now()
	for _, ev := range t.Events {
		switch ev.Op {
		case workload.OpLoad, workload.OpStore:
			pc += 4
			c.AccessTo(uint64(ev.Arg), ev.Op == workload.OpStore, &res)
			if p != nil {
				p.AfterAccess(res)
			}
		case workload.OpEnter:
			pc = t.Regions[ev.Arg].Base
		}
	}
	return time.Since(t0)
}

func fastest(f func() time.Duration) time.Duration {
	best := f()
	for i := 1; i < layerReps; i++ {
		if d := f(); d < best {
			best = d
		}
	}
	return best
}

// layerCosts holds per-layer costs over a set of kernels.
type layerCosts struct {
	accessNs   float64            // cache.AccessTo, per access
	afterNs    map[string]float64 // predictor AfterAccess, per access
	voltageNs  float64            // EDBP OnVoltage, per call
	planSaveUs float64            // checkpoint.PlanSaveInto, per call
	stepNs     float64            // Capacitor.StepEnergy, per call
}

func measureLayers(ks []*kernel, kind energy.TraceKind, seed uint64) layerCosts {
	seed = harvestSeed(seed, 0) // the first sweep's harvest trace
	lc := layerCosts{afterNs: map[string]float64{}}
	var accesses float64
	var bare time.Duration
	with := map[string]time.Duration{}
	for _, k := range ks {
		accesses += float64(k.counts.loads + k.counts.stores)
		b := fastest(func() time.Duration { return replayAccesses(k.trace, "") })
		bare += b
		for _, n := range predictorNames {
			with[n] += fastest(func() time.Duration { return replayAccesses(k.trace, n) })
		}
	}
	lc.accessNs = float64(bare.Nanoseconds()) / accesses
	for _, n := range predictorNames {
		lc.afterNs[n] = float64((with[n] - bare).Nanoseconds()) / accesses
	}

	var vCalls, pCalls, sCalls float64
	var vTime, pTime, sTime time.Duration
	for _, k := range ks {
		vs := voltages(k, kind, seed)
		vCalls += float64(len(vs))
		vTime += fastest(func() time.Duration { return replayVoltages(vs) })
		pt, n := replayPlanSave(k.trace)
		pTime += pt
		pCalls += float64(n)
		dts, harvest := energyInputs(k.trace, kind, seed)
		sCalls += float64(len(dts))
		sTime += fastest(func() time.Duration { return replayStep(dts, harvest) })
	}
	lc.voltageNs = float64(vTime.Nanoseconds()) / vCalls
	lc.planSaveUs = float64(pTime.Nanoseconds()) / 1e3 / pCalls
	lc.stepNs = float64(sTime.Nanoseconds()) / sCalls
	return lc
}

// voltages samples the capacitor voltage of an EDBP run on the kernel
// while powered: the sequence EDBP's OnVoltage sees.
func voltages(k *kernel, kind energy.TraceKind, seed uint64) []float64 {
	var vs []float64
	cfg := simConfig(k, sim.EDBP, kind, seed)
	cfg.VoltageSampler = func(_, v float64, on bool) {
		if on && len(vs) < maxVoltages {
			vs = append(vs, v)
		}
	}
	if _, err := sim.RunContext(context.Background(), cfg); err != nil {
		panic(err)
	}
	return vs
}

func replayVoltages(vs []float64) time.Duration {
	c, _ := cache.New(dcacheConfig(cache.GateInvalid))
	e := newPredictor("core", 4)
	e.Attach(predictor.Env{Cache: c, GateBlock: func(set, way int) { c.Gate(set, way) }, ClockHz: cpu.Default().ClockHz})
	t0 := time.Now()
	for _, v := range vs {
		e.OnVoltage(v)
	}
	return time.Since(t0)
}

// replayPlanSave plans a JIT checkpoint of the D-cache at planSaveCalls
// points spread over the trace's accesses.
func replayPlanSave(t *workload.Trace) (time.Duration, int) {
	c, _ := cache.New(dcacheConfig(cache.AlwaysOn))
	costs := checkpoint.Default()
	var buf [][2]int
	every := int(t.Loads+t.Stores)/planSaveCalls + 1
	var total time.Duration
	calls, n := 0, 0
	var res cache.AccessResult
	for _, ev := range t.Events {
		if ev.Op != workload.OpLoad && ev.Op != workload.OpStore {
			continue
		}
		c.AccessTo(uint64(ev.Arg), ev.Op == workload.OpStore, &res)
		if n++; n%every == 0 {
			t0 := time.Now()
			for i := 0; i < planSaveInner; i++ {
				_, buf = checkpoint.PlanSaveInto(c, checkpoint.DirtyOnly{}, costs, buf[:0])
			}
			total += time.Since(t0)
			calls += planSaveInner
		}
	}
	return total, calls
}

// energyInputs derives one capacitor step per trace event: the event's
// duration at the default clock and the harvested power at its time.
func energyInputs(t *workload.Trace, kind energy.TraceKind, seed uint64) (dts, harvest []float64) {
	clock := cpu.Default().ClockHz
	cur := energy.CachedTrace(kind, seed).Cursor()
	now := 0.0
	dts = make([]float64, len(t.Events))
	harvest = make([]float64, len(t.Events))
	for i, ev := range t.Events {
		cycles := 1.0
		if ev.Op == workload.OpTick {
			cycles = float64(ev.Arg)
		}
		dts[i] = cycles / clock
		now += dts[i]
		harvest[i] = cur.Power(now)
	}
	return dts, harvest
}

// stepLoadW is the load the energy replay drains: the paper's 2.58 mW
// average power.
const stepLoadW = 2.58e-3

func replayStep(dts, harvest []float64) time.Duration {
	c, _ := energy.NewCapacitor(energy.DefaultCapacitor())
	t0 := time.Now()
	for i, dt := range dts {
		c.StepEnergy(dt, harvest[i], dt*stepLoadW)
	}
	return time.Since(t0)
}

// sweepCounts sums the exact counts of one sweep's results.
func sweepCounts(r *run, results []*sim.Result, events map[string]uint64) {
	var ev, dm, im, out, saved, gated uint64
	var hib float64
	for _, res := range results {
		ev += events[res.Config.App]
		dm += res.DCacheStats.Misses
		im += res.ICacheStats.Misses
		out += uint64(res.Outages)
		saved += uint64(res.CheckpointBlocks)
		if res.EDBP != nil {
			gated += res.EDBP.Gated
		}
		hib += res.OffTime
	}
	r.set("sim.events", float64(ev), "count")
	r.set("cache.d_misses", float64(dm), "count")
	r.set("cache.i_misses", float64(im), "count")
	r.set("checkpoint.outages", float64(out), "count")
	r.set("checkpoint.blocks_saved", float64(saved), "count")
	r.set("core.blocks_gated", float64(gated), "count")
	r.set("energy.hibernate_s", hib, "s")
}

// setLayerCosts reports the replayed layer costs, the per-scheme
// end-to-end ns/event of a's sweeps, the composition gap between the two,
// and the exact counts of a's first sweep.
func setLayerCosts(r *run, lc layerCosts, ks []*kernel, a *simAcc) {
	events := map[string]uint64{}
	var ev, mem float64
	for _, k := range ks {
		events[k.name] = uint64(len(k.trace.Events))
		ev += float64(len(k.trace.Events))
		mem += float64(k.counts.loads + k.counts.stores)
	}
	memOpsPerEvent, outagesPerEvent := mem/ev, float64(a.outages)/float64(a.events)
	sweepCounts(r, a.first, events)

	r.set("cache.access_ns", lc.accessNs, "ns")
	for _, n := range predictorNames {
		if n == "core" {
			r.set("core.after_access_ns", lc.afterNs[n], "ns")
		} else {
			r.set("predictor."+n+".after_access_ns", lc.afterNs[n], "ns")
		}
	}
	r.set("core.on_voltage_ns", lc.voltageNs, "ns")
	r.set("checkpoint.plan_save_us", lc.planSaveUs, "us")
	r.set("energy.step_ns", lc.stepNs, "ns")

	var predSum float64
	for _, s := range sim.Schemes {
		r.set("sim.ns_per_event."+strings.ReplaceAll(s.String(), "+", "-"),
			float64(a.schemeTime[s].Nanoseconds())/float64(a.schemeEvent[s]), "ns")
		for _, p := range schemeParts[s] {
			predSum += lc.afterNs[p]
		}
	}
	perEvent := memOpsPerEvent*(lc.accessNs+predSum/float64(len(sim.Schemes))) +
		lc.stepNs + outagesPerEvent*lc.planSaveUs*1e3
	r.set("sim.composition_ns", a.nsPerEvent()-perEvent, "ns")
}

// serviceMetrics are the per-layer metrics of edbpd and its store, which
// only edbpd-cluster runs; the sim workloads report them as 0.
var serviceMetrics = map[string]string{
	"cluster.dispatch_ms": "ms", "cluster.dispatch_attempts": "count",
	"edbpd.queue_wait_ms": "ms", "edbpd.simulate_ms": "ms", "edbpd.cache_lookup_us": "us",
	"http.run_ms": "ms", "edbpd.simulations": "count", "edbpd.distinct_configs": "count",
	"store.append_ms": "ms", "store.records": "count", "store.query_ms": "ms", "store.runs_ms": "ms",
	"span.dropped":   "count",
	"run_hit_p50_ms": "ms", "run_hit_p99_ms": "ms", "run_respelled_p50_ms": "ms",
	"store_read_p50_ms": "ms", "store_read_p90_ms": "ms",
}

// simLayers reports the sim workloads' per-layer metrics.
func simLayers(r *run, ks []*kernel, kind energy.TraceKind, seed uint64, setup setupTimes, plain, traced *simAcc) {
	lc := measureLayers(ks, kind, seed)
	r.set("workload.record_ms", median(setup.record), "ms")
	r.set("energy.trace_gen_ms", median(setup.traceGen), "ms")

	setLayerCosts(r, lc, ks, plain)
	r.set("trace.overhead_pct", (traced.nsPerEvent()/plain.nsPerEvent()-1)*100, "%")
	for name, unit := range serviceMetrics {
		r.set(name, 0, unit)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
