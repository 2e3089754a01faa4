package main

// Output checks. Each one recomputes what it compares against without the
// simulator's code paths: a recount of the recorded trace, hash/crc32 on
// the regenerated crc32 input, a separate LRU cache model, and properties
// every Result must have. They run outside the timed regions.

import (
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"strings"

	"edbp/internal/fuzz"
	"edbp/internal/sim"
	"edbp/internal/workload"
	"edbp/internal/xrand"
)

// traceCounts is a trace's instruction mix, recounted from its events.
type traceCounts struct {
	instructions, loads, stores uint64
}

// recount derives the instruction mix from the event stream alone: a tick
// retires Arg instructions, every other event retires one.
func recount(events []workload.Event) traceCounts {
	var c traceCounts
	for _, ev := range events {
		switch ev.Op {
		case workload.OpTick:
			c.instructions += uint64(ev.Arg)
		case workload.OpLoad:
			c.instructions++
			c.loads++
		case workload.OpStore:
			c.instructions++
			c.stores++
		default:
			c.instructions++
		}
	}
	return c
}

// checkTrace compares the recount with the trace's header.
func checkTrace(t *workload.Trace) (traceCounts, error) {
	c := recount(t.Events)
	if c.instructions != t.Instructions || c.loads != t.Loads || c.stores != t.Stores {
		return c, fmt.Errorf("%s: recount instr/loads/stores %d/%d/%d, header %d/%d/%d",
			t.Name, c.instructions, c.loads, c.stores, t.Instructions, t.Loads, t.Stores)
	}
	return c, nil
}

// crc32Input regenerates the crc32 kernel's input stream: 160 000 bytes at
// scale 1.0, drawn from xrand.New(0xc3c3) one byte per draw.
func crc32Input(scale float64) []byte {
	n := int(160_000 * scale)
	if n < 1 {
		n = 1
	}
	buf := make([]byte, n)
	rng := xrand.New(0xc3c3)
	for i := range buf {
		buf[i] = uint8(rng.Uint32())
	}
	return buf
}

// checkChecksum compares a kernel checksum with hash/crc32 over its input.
func checkChecksum(input []byte, got uint32) error {
	if want := crc32.ChecksumIEEE(input); got != want {
		return fmt.Errorf("crc32 checksum %#08x, hash/crc32 gives %#08x", got, want)
	}
	return nil
}

// checkResult asserts what every completed run must satisfy.
func checkResult(res *sim.Result, c traceCounts) error {
	switch {
	case res.Truncated:
		return fmt.Errorf("run truncated at %gs", res.WallTime)
	case res.Instructions != c.instructions:
		return fmt.Errorf("instructions %d, trace recount %d", res.Instructions, c.instructions)
	case res.DCacheStats.Hits+res.DCacheStats.Misses != c.loads+c.stores:
		return fmt.Errorf("D-cache hits+misses %d, loads+stores %d",
			res.DCacheStats.Hits+res.DCacheStats.Misses, c.loads+c.stores)
	case res.ActiveTime < float64(res.Instructions)/res.Config.CPU.ClockHz:
		return fmt.Errorf("active time %gs below instructions/clock %gs",
			res.ActiveTime, float64(res.Instructions)/res.Config.CPU.ClockHz)
	case res.WallTime < res.ActiveTime:
		return fmt.Errorf("wall time %gs below active time %gs", res.WallTime, res.ActiveTime)
	}
	return nil
}

// lruModel is a plain set-associative write-allocate LRU cache that tracks
// tags only: the reference for the simulator's D-cache on runs that never
// lose power and never gate a block.
type lruModel struct {
	sets, ways, block uint64
	lines             [][]uint64 // per set, most recently used first
	hits, misses      uint64
}

func newLRU(sets, ways, block int) *lruModel {
	return &lruModel{sets: uint64(sets), ways: uint64(ways), block: uint64(block), lines: make([][]uint64, sets)}
}

func (m *lruModel) access(addr uint64) bool {
	blk := addr / m.block
	set, tag := blk%m.sets, blk/m.sets
	l := m.lines[set]
	for i, t := range l {
		if t == tag {
			copy(l[1:i+1], l[:i])
			l[0] = tag
			m.hits++
			return true
		}
	}
	if uint64(len(l)) < m.ways {
		l = append(l, 0)
	}
	copy(l[1:], l[:len(l)-1])
	l[0] = tag
	m.lines[set] = l
	m.misses++
	return false
}

// lruCounts feeds the trace's loads and stores through the paper's 4 kB
// D-cache geometry: 64 sets × 4 ways × 16 B.
func lruCounts(events []workload.Event) (hits, misses uint64) {
	m := newLRU(64, 4, 16)
	for _, ev := range events {
		if ev.Op == workload.OpLoad || ev.Op == workload.OpStore {
			m.access(uint64(ev.Arg))
		}
	}
	return m.hits, m.misses
}

// lruApplies reports whether the LRU model must reproduce res exactly: a
// scheme without gate-Vdd hardware on a run that never lost power.
func lruApplies(res *sim.Result) bool {
	return (res.Config.Scheme == sim.Baseline || res.Config.Scheme == sim.SDBP) && res.Outages == 0
}

func checkLRU(res *sim.Result, hits, misses uint64) error {
	if res.DCacheStats.Hits != hits || res.DCacheStats.Misses != misses {
		return fmt.Errorf("D-cache hits/misses %d/%d, LRU model %d/%d",
			res.DCacheStats.Hits, res.DCacheStats.Misses, hits, misses)
	}
	return nil
}

// checkInvariants evaluates the fuzz catalog's invariants that need no
// probe artifacts. cycle-conservation needs the trace summary a recorder
// produces, so it runs only when one was attached. ref-identity demands
// bit-identity with the reference stepper, which F1 (README) shows does not
// hold; compareReference checks that pair with a tolerance instead.
func checkInvariants(res *sim.Result) error {
	a := &fuzz.Artifacts{Res: res, Summary: res.TraceSummary}
	for _, inv := range fuzz.Catalog() {
		switch {
		case inv.Name == "ref-identity" || inv.Name == "cancel-partial":
			continue
		case inv.Name == "cycle-conservation" && res.TraceSummary == nil:
			continue
		}
		if err := inv.Check(a); err != nil {
			return fmt.Errorf("invariant %s: %w", inv.Name, err)
		}
	}
	return nil
}

// refRelTol bounds the relative difference of accumulated energies between
// the batched loop and the reference stepper (F1: a few ulps).
const refRelTol = 1e-12

// simTimes are the Result fields holding simulated time; they must match
// the reference stepper exactly.
var simTimes = map[string]bool{"WallTime": true, "ActiveTime": true, "OffTime": true, "OutageTimes": true}

// compareResults walks two Results field by field: integers, booleans and
// simulated times must be equal, other floats equal within refRelTol. The
// Config and TraceSummary fields are skipped: they describe the request and
// the observer, not the outcome.
func compareResults(a, b *sim.Result) error {
	return compareValue(reflect.ValueOf(*a), reflect.ValueOf(*b), "Result", false)
}

func compareValue(a, b reflect.Value, path string, exact bool) error {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if !f.IsExported() || f.Name == "Config" || f.Name == "TraceSummary" {
				continue
			}
			if err := compareValue(a.Field(i), b.Field(i), path+"."+f.Name, exact || simTimes[f.Name]); err != nil {
				return err
			}
		}
	case reflect.Pointer:
		if a.IsNil() != b.IsNil() {
			return fmt.Errorf("%s: one side is nil", path)
		}
		if !a.IsNil() {
			return compareValue(a.Elem(), b.Elem(), path, exact)
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := compareValue(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i), exact); err != nil {
				return err
			}
		}
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		if exact && x != y || !exact && math.Abs(x-y) > refRelTol*math.Max(math.Abs(x), math.Abs(y)) {
			return fmt.Errorf("%s: %v vs %v", path, x, y)
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Errorf("%s: %v vs %v", path, a.Interface(), b.Interface())
		}
	}
	return nil
}

// expectedOutput is the field set edbpd's run responses must carry for a
// result, computed here from the Result alone.
func expectedOutput(res *sim.Result) map[string]any {
	e := res.Energy
	missRate := func(h, m uint64) float64 {
		if h+m == 0 {
			return 0
		}
		return float64(m) / float64(h+m)
	}
	p := res.Prediction
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	return map[string]any{
		"app":                 res.Config.App,
		"scheme":              res.Config.Scheme.String(),
		"trace":               res.Config.TraceKind.String(),
		"wall_seconds":        res.WallTime,
		"active_seconds":      res.ActiveTime,
		"off_seconds":         res.OffTime,
		"instructions":        float64(res.Instructions),
		"power_cycles":        float64(res.PowerCycles),
		"checkpoints":         float64(res.Checkpoints),
		"outages":             float64(res.Outages),
		"dcache_miss_rate":    missRate(res.DCacheStats.Hits, res.DCacheStats.Misses),
		"icache_miss_rate":    missRate(res.ICacheStats.Hits, res.ICacheStats.Misses),
		"energy_total_j":      (e.DCacheDynamic + e.DCacheLeak) + (e.ICacheDynamic + e.ICacheLeak) + e.Memory + e.Checkpoint + (e.MCU + e.CapacitorLeak),
		"energy_dcache_j":     e.DCacheDynamic + e.DCacheLeak,
		"energy_icache_j":     e.ICacheDynamic + e.ICacheLeak,
		"energy_memory_j":     e.Memory,
		"energy_checkpoint_j": e.Checkpoint,
		"coverage":            ratio(p.TP, p.TP+p.FN+p.ZombieFN),
		"accuracy":            ratio(p.TP+p.TN, p.TP+p.FP+p.TN+p.FN+p.ZombieFN),
		"truncated":           res.Truncated,
	}
}

// checkOutput compares a decoded run response with expectedOutput, field by
// field; fields the response adds beyond those (cache_hit, node) are not
// part of the result.
func checkOutput(got map[string]any, res *sim.Result) error {
	var bad []string
	for k, want := range expectedOutput(res) {
		if g, ok := got[k]; !ok || g != want {
			bad = append(bad, fmt.Sprintf("%s=%v want %v", k, got[k], want))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s/%s: %s", res.Config.App, res.Config.Scheme, strings.Join(bad, ", "))
	}
	return nil
}

// checkHit compares a cache hit's body with the cold body it repeats:
// identical except that cache_hit is true.
func checkHit(hit, cold map[string]any) error {
	if hit["cache_hit"] != true {
		return fmt.Errorf("repeat was not served from the cache")
	}
	for k, v := range cold {
		if k != "cache_hit" && hit[k] != v {
			return fmt.Errorf("hit field %s=%v, cold %v", k, hit[k], v)
		}
	}
	for k := range hit {
		if _, ok := cold[k]; !ok && k != "cache_hit" {
			return fmt.Errorf("hit adds field %s", k)
		}
	}
	return nil
}
