package main

import (
	"context"
	"fmt"
	"math"
	"testing"

	"edbp/internal/energy"
	"edbp/internal/sim"
	"edbp/internal/workload"
)

// A 2-set × 2-way × 16 B cache, worked by hand:
//
//	0x00 miss  set0 [0]
//	0x04 hit   same block
//	0x20 miss  set0 [2 0]
//	0x00 hit   set0 [0 2]
//	0x40 miss  set0 [4 0]   evicts 2, the least recent
//	0x20 miss  set0 [2 4]   evicts 0
//	0x40 hit   set0 [4 2]
//	0x10 miss  set1 [1]
//	0x00 miss  set0 [0 4]   evicts 2
func TestLRUModelHandWorked(t *testing.T) {
	m := newLRU(2, 2, 16)
	seq := []struct {
		addr uint64
		hit  bool
	}{{0x00, false}, {0x04, true}, {0x20, false}, {0x00, true}, {0x40, false},
		{0x20, false}, {0x40, true}, {0x10, false}, {0x00, false}}
	for i, s := range seq {
		if got := m.access(s.addr); got != s.hit {
			t.Fatalf("access %d (%#x): hit=%v, want %v", i, s.addr, got, s.hit)
		}
	}
	if m.hits != 3 || m.misses != 6 {
		t.Fatalf("hits/misses %d/%d, want 3/6", m.hits, m.misses)
	}
}

func TestCRC32CheckCatchesFlippedByte(t *testing.T) {
	const scale = 0.05
	tr, err := workload.Cached("crc32", scale)
	if err != nil {
		t.Fatal(err)
	}
	in := crc32Input(scale)
	if err := checkChecksum(in, tr.Checksum); err != nil {
		t.Fatalf("unperturbed input: %v", err)
	}
	in[len(in)/2] ^= 0x01
	if checkChecksum(in, tr.Checksum) == nil {
		t.Fatal("a flipped input byte passed the crc32 check")
	}
}

// zeroOutageRun is a Baseline run that never loses power, so every check,
// the LRU model included, applies to it.
func zeroOutageRun(t *testing.T) (*sim.Result, *workload.Trace) {
	t.Helper()
	tr, err := workload.Cached("cjpeg", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default("cjpeg", sim.Baseline)
	cfg.Scale = 0.25
	cfg.Trace = tr
	cfg.TraceKind = energy.Solar
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages != 0 {
		t.Fatalf("want a run without outages, got %d", res.Outages)
	}
	return res, tr
}

func TestChecksPassOnRealRun(t *testing.T) {
	res, tr := zeroOutageRun(t)
	c, err := checkTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(res, c); err != nil {
		t.Fatal(err)
	}
	if !lruApplies(res) {
		t.Fatal("LRU model should apply to a zero-outage Baseline run")
	}
	h, m := lruCounts(tr.Events)
	if err := checkLRU(res, h, m); err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(res); err != nil {
		t.Fatal(err)
	}
	ref, err := sim.RunReference(context.Background(), res.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareResults(res, ref); err != nil {
		t.Fatal(err)
	}
}

// Every property check must fail on a result with one field perturbed.
func TestChecksFailOnePerturbedField(t *testing.T) {
	orig, tr := zeroOutageRun(t)
	c := recount(tr.Events)
	h, m := lruCounts(tr.Events)
	clone := func() *sim.Result {
		r := *orig
		return &r
	}
	cases := []struct {
		name    string
		perturb func(r *sim.Result)
		check   func(r *sim.Result) error
	}{
		{"truncated", func(r *sim.Result) { r.Truncated = true }, func(r *sim.Result) error { return checkResult(r, c) }},
		{"instructions", func(r *sim.Result) { r.Instructions++ }, func(r *sim.Result) error { return checkResult(r, c) }},
		{"dcache accesses", func(r *sim.Result) { r.DCacheStats.Hits++ }, func(r *sim.Result) error { return checkResult(r, c) }},
		{"active time", func(r *sim.Result) { r.ActiveTime = float64(r.Instructions) / r.Config.CPU.ClockHz / 2 },
			func(r *sim.Result) error { return checkResult(r, c) }},
		{"wall time", func(r *sim.Result) { r.WallTime = r.ActiveTime / 2 }, func(r *sim.Result) error { return checkResult(r, c) }},
		{"lru misses", func(r *sim.Result) { r.DCacheStats.Misses++ }, func(r *sim.Result) error { return checkLRU(r, h, m) }},
		{"lru hits", func(r *sim.Result) { r.DCacheStats.Hits-- }, func(r *sim.Result) error { return checkLRU(r, h, m) }},
		{"invariant checkpoint-pairing", func(r *sim.Result) { r.Checkpoints++ }, checkInvariants},
		{"invariant time-partition", func(r *sim.Result) { r.OffTime += 1 }, checkInvariants},
		{"invariant domains", func(r *sim.Result) { r.Energy.Memory = math.NaN() }, checkInvariants},
		{"reference time", func(r *sim.Result) { r.WallTime = math.Nextafter(r.WallTime, 1) },
			func(r *sim.Result) error { return compareResults(r, orig) }},
		{"reference count", func(r *sim.Result) { r.Outages++ }, func(r *sim.Result) error { return compareResults(r, orig) }},
		{"reference energy", func(r *sim.Result) { r.Energy.DCacheLeak *= 1 + 1e-9 },
			func(r *sim.Result) error { return compareResults(r, orig) }},
		{"output", func(r *sim.Result) { r.WallTime *= 2 }, func(r *sim.Result) error {
			return checkOutput(expectedOutput(r), orig)
		}},
	}
	for _, tc := range cases {
		r := clone()
		tc.perturb(r)
		if tc.check(r) == nil {
			t.Errorf("%s: perturbed result passed", tc.name)
		}
	}
	// The reference comparison tolerates the few-ulp energy differences F1
	// documents, and nothing more.
	r := clone()
	r.Energy.DCacheLeak = math.Nextafter(r.Energy.DCacheLeak, math.Inf(1))
	if err := compareResults(r, orig); err != nil {
		t.Errorf("one ulp of D-cache leakage failed the reference check: %v", err)
	}
}

func TestTraceRecountCatchesHeader(t *testing.T) {
	tr, err := workload.Cached("dijkstra", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	bad := &workload.Trace{Name: tr.Name, Events: tr.Events, Instructions: tr.Instructions, Loads: tr.Loads + 1, Stores: tr.Stores}
	if _, err := checkTrace(bad); err == nil {
		t.Fatal("a header with one extra load passed the recount")
	}
}

func TestHitCheck(t *testing.T) {
	cold := map[string]any{"app": "crc32", "wall_seconds": 1.5, "cache_hit": false}
	hit := map[string]any{"app": "crc32", "wall_seconds": 1.5, "cache_hit": true}
	if err := checkHit(hit, cold); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]map[string]any{
		"not a hit":     {"app": "crc32", "wall_seconds": 1.5, "cache_hit": false},
		"changed value": {"app": "crc32", "wall_seconds": 1.6, "cache_hit": true},
		"extra field":   {"app": "crc32", "wall_seconds": 1.5, "cache_hit": true, "x": 1.0},
	} {
		if checkHit(bad, cold) == nil {
			t.Errorf("%s: passed the hit check", name)
		}
	}
}

// No scheme always runs right after the same one.
func TestSchemeOrderVariesSuccessors(t *testing.T) {
	next := map[sim.Scheme]map[sim.Scheme]bool{}
	for rep := 0; rep < 4; rep++ {
		order := schemeOrder(rep)
		seen := map[sim.Scheme]bool{}
		for i, s := range order {
			seen[s] = true
			if i > 0 {
				if next[order[i-1]] == nil {
					next[order[i-1]] = map[sim.Scheme]bool{}
				}
				next[order[i-1]][s] = true
			}
		}
		if len(seen) != len(sim.Schemes) {
			t.Fatalf("rep %d order %v is not a permutation", rep, order)
		}
	}
	for s, succ := range next {
		if len(succ) < 2 {
			t.Errorf("%v is always followed by the same scheme", s)
		}
	}
}

// Only answers the server simulated for are credited with trace events;
// every grid cell that ended done counts as a cell.
func TestDecodeCreditsOnlySimulatedRuns(t *testing.T) {
	k := cfgKey{app: "crc32", scheme: sim.EDBP, seed: 1}
	cell := func(hit bool) string {
		return fmt.Sprintf(`{"key":"k","status":"done","result":{"scheme":"EDBP","cache_hit":%v}}`, hit)
	}
	c := &conn{
		events: map[string]uint64{"crc32": 100},
		done:   make([]completion, 3),
		answers: []*answer{
			{key: k, raw: []byte(`{"cache_hit":false}`), done: 0},
			{key: k, raw: []byte(`{"cache_hit":true}`), done: 1},
		},
		grids: []gridAnswer{{app: "crc32", seed: 1, done: 2,
			raw: []byte(`{"entries":[` + cell(false) + "," + cell(true) + "," + cell(false) + `]}`)}},
	}
	c.decode()
	if len(c.failures) > 0 {
		t.Fatal(c.failures)
	}
	want := []completion{{events: 100}, {}, {events: 200, cells: 3}}
	for i, w := range want {
		if c.done[i] != w {
			t.Errorf("completion %d credited %+v, want %+v", i, c.done[i], w)
		}
	}
}
