package main

// The edbpd-cluster workload: a coordinator and one worker edbpd, built
// from the tree and bound to loopback, driven by two closed-loop client
// connections. Every connection runs whole rounds of the same eighteen
// requests (see round), so each request type keeps a fixed share.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"edbp/internal/energy"
	"edbp/internal/sim"
	"edbp/internal/workload"
	"edbp/internal/xrand"
)

const (
	clusterScale   = 0.25
	clusterConns   = 2
	clusterSetups  = 41 // cluster start-ups per run; setup_s is their median
	nodeStopWait   = 15 * time.Second
	gridCells      = 3  // fresh cells per grid request
	coldPerRound   = 2  // cold runs per round
	hitsPerRound   = 12 // exact repeats per round
	minRoundsTotal = 84 // ≥1000 hits, so the hit p99 has ten samples beyond it
	// rssRounds is the fixed amount of work peak_rss_mb is taken over.
	// edbpd keeps every job, result and harvest trace it has served, so
	// over a timed loop its memory would grow with its throughput.
	rssRounds = 84
)

// respellings are equivalent spellings of default request fields.
var respellings = []struct{ field, value string }{{"policy", "lru"}, {"trace", "rfhome"}, {"nvm", "reram"}}

// node is one running edbpd process.
type node struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

func startNode(bin, logPath, addr string, args ...string) (*node, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(n.done) }()
	return n, nil
}

// stop ends the process (SIGTERM, then SIGKILL after nodeStopWait) and
// returns its peak RSS in MB.
func (n *node) stop() float64 {
	n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(nodeStopWait):
		n.cmd.Process.Kill()
		<-n.done
	}
	if ru, ok := n.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

type clusterProcs struct{ coord, worker *node }

func (c *clusterProcs) stop() float64 {
	rss := 0.0
	if c.worker != nil {
		rss += c.worker.stop()
	}
	if c.coord != nil {
		rss += c.coord.stop()
	}
	return rss
}

var client = &http.Client{
	Timeout:   2 * time.Minute,
	Transport: &http.Transport{MaxIdleConnsPerHost: clusterConns + 2},
}

// waitFor polls cond every millisecond until it holds or 30 s pass.
func waitFor(what string, cond func() bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func healthy(base string) bool {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// startCluster starts a coordinator and a worker that joins it, and
// returns once both are healthy and the worker is a live member.
func startCluster(o opts, dir string, spans bool) (*clusterProcs, time.Duration, error) {
	var extra []string
	if !spans {
		extra = append(extra, "-span-off")
	}
	c := &clusterProcs{}
	coordAddr, err := freePort()
	if err != nil {
		return c, 0, err
	}
	workerAddr, err := freePort()
	if err != nil {
		return c, 0, err
	}
	store := dir + "/store"
	os.RemoveAll(store)
	t0 := time.Now()
	if c.coord, err = startNode(o.edbpd, dir+"/coord.log", coordAddr,
		append([]string{"-coordinator", "-node-id", "coord"}, extra...)...); err != nil {
		return c, 0, err
	}
	if err := waitFor("coordinator health", func() bool { return healthy(c.coord.url) }); err != nil {
		return c, 0, err
	}
	if c.worker, err = startNode(o.edbpd, dir+"/worker.log", workerAddr, append([]string{
		"-join", c.coord.url, "-node-id", "w1", "-advertise", "http://" + workerAddr, "-store", store,
	}, extra...)...); err != nil {
		return c, 0, err
	}
	err = waitFor("worker join", func() bool {
		if !healthy(c.worker.url) {
			return false
		}
		var members []struct {
			ID    string `json:"id"`
			Alive bool   `json:"alive"`
		}
		if getJSON(c.coord.url+"/cluster/nodes", &members) != nil {
			return false
		}
		for _, m := range members {
			if m.ID == "w1" && m.Alive {
				return true
			}
		}
		return false
	})
	return c, time.Since(t0), err
}

// requestScheme spells each scheme the way edbpd's requests name it.
var requestScheme = map[sim.Scheme]string{
	sim.Baseline: "baseline", sim.SDBP: "sdbp", sim.Decay: "decay", sim.AMC: "amc", sim.EDBP: "edbp",
	sim.DecayEDBP: "decay+edbp", sim.AMCEDBP: "amc+edbp", sim.Counting: "counting", sim.RefTrace: "reftrace",
	sim.CountingEDBP: "counting+edbp", sim.RefTraceEDBP: "reftrace+edbp", sim.Ideal: "ideal",
}

// schemeByName maps a response's scheme name back to the scheme.
var schemeByName = func() map[string]sim.Scheme {
	m := map[string]sim.Scheme{}
	for _, s := range sim.Schemes {
		m[s.String()] = s
	}
	return m
}()

// cfgKey identifies one library configuration of the mix: every other
// field is the default.
type cfgKey struct {
	app    string
	scheme sim.Scheme
	seed   uint64
}

func (k cfgKey) config() sim.Config {
	cfg := sim.Default(k.app, k.scheme)
	cfg.Scale = clusterScale
	cfg.SourceSeed = k.seed
	return cfg
}

func (k cfgKey) request() map[string]any {
	return map[string]any{"app": k.app, "scheme": requestScheme[k.scheme], "scale": clusterScale, "seed": k.seed}
}

// answer is one response kept for the checks after the loop.
type answer struct {
	key  cfgKey
	raw  []byte
	body map[string]any // raw, decoded after the loop
	cold *answer        // for a hit, the cold answer it repeats
	done int            // for a cold or re-spelled run, its completion in conn.done
}

// gridAnswer is one grid response, decoded after the loop.
type gridAnswer struct {
	app  string
	seed uint64
	raw  []byte
	done int // its completion in conn.done
}

// conn is one client connection's closed loop and what it saw.
type conn struct {
	coord, worker string
	events        map[string]uint64 // trace events of one run, by kernel
	rng           *xrand.Rand
	seedBase      uint64
	freshN        [2]int
	colds         []*answer
	respelledNext int
	answers       []*answer // cold and re-spelled answers
	grids         []gridAnswer
	hits          []*answer
	lat           map[string][]float64 // ms by request kind
	requests      int
	failures      []string
	start         time.Time
	// Completion times since start, with the work each completion did:
	// requests, trace events freshly simulated, grid cells. The work is
	// credited after the loop, from the decoded answers.
	done []completion
}

type completion struct {
	at            time.Duration
	events, cells float64
}

func (c *conn) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// do sends one timed request and returns the body of a 200 response. The
// body is kept undecoded so the loop spends no time on it.
func (c *conn) do(kind, method, u string, body any) ([]byte, bool) {
	var rd io.Reader
	if body != nil {
		b, _ := json.Marshal(body)
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		c.fail("%s: %v", kind, err)
		return nil, false
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	c.requests++
	c.lat[kind] = append(c.lat[kind], ms(d))
	c.done = append(c.done, completion{at: time.Since(c.start)})
	if err != nil {
		c.fail("%s %s: %v", method, u, err)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		c.fail("%s %s: HTTP %d: %s", method, u, resp.StatusCode, bytes.TrimSpace(raw))
		return nil, false
	}
	return raw, true
}

// simulated reports whether an answer's body says the run was simulated
// for it rather than answered from a result cache.
func simulated(body map[string]any) bool { return body["cache_hit"] == false }

// decode turns the kept bodies into answers, every grid cell of which
// must have ended done, and credits each completion with the grid cells it
// answered and the trace events simulated for it.
func (c *conn) decode() {
	for _, a := range c.answers {
		if err := json.Unmarshal(a.raw, &a.body); err != nil {
			c.fail("run answer %v: %v", a.key, err)
		} else if simulated(a.body) {
			c.done[a.done].events += float64(c.events[a.key.app])
		}
	}
	for _, a := range c.hits {
		if err := json.Unmarshal(a.raw, &a.body); err != nil {
			c.fail("run answer %v: %v", a.key, err)
		}
	}
	for _, g := range c.grids {
		var out struct {
			Entries []struct {
				Key, Status, Error string
				Result             map[string]any
			}
		}
		if err := json.Unmarshal(g.raw, &out); err != nil {
			c.fail("grid answer: %v", err)
			continue
		}
		if len(out.Entries) != gridCells {
			c.fail("grid returned %d cells, want %d", len(out.Entries), gridCells)
		}
		for _, e := range out.Entries {
			if e.Status != "done" || e.Result == nil {
				c.fail("grid cell %s ended %s: %s", e.Key, e.Status, e.Error)
				continue
			}
			name, _ := e.Result["scheme"].(string)
			k := cfgKey{app: g.app, scheme: schemeByName[name], seed: g.seed}
			c.answers = append(c.answers, &answer{key: k, body: e.Result})
			c.done[g.done].cells++
			if simulated(e.Result) {
				c.done[g.done].events += float64(c.events[g.app])
			}
		}
	}
}

// fresh returns the next configuration of one of the connection's two
// streams (0 grids, 1 cold runs), none asked for before: blocks of 36 run
// through 3 kernels × 12 schemes under one seed, then the seed moves on.
// Seeds are reused across a block so that the harvest traces a run
// generates stay few (edbpd caches every one it sees).
func (c *conn) fresh(stream uint64) cfgKey {
	n := &c.freshN[stream]
	j := *n
	*n++
	return cfgKey{
		app:    simKernels[(j%36)/12],
		scheme: sim.Schemes[j%12],
		seed:   c.seedBase + 2*uint64(j/36) + stream,
	}
}

// round sends one round of the mix: a grid, coldPerRound cold runs,
// hitsPerRound repeats, a re-spelling and two store reads. Kernels and schemes
// follow a fixed cycle (see fresh), so every run asks for the same work
// whatever its seed; the seed picks the harvest traces.
func (c *conn) round() {
	// A grid of fresh cells: one kernel and seed, gridCells schemes (12
	// is a multiple of gridCells, so a grid never straddles two blocks).
	base := c.fresh(0)
	app := base.app
	schemes := []string{requestScheme[base.scheme]}
	for j := 1; j < gridCells; j++ {
		schemes = append(schemes, requestScheme[c.fresh(0).scheme])
	}
	grid := map[string]any{"base": map[string]any{"app": app, "scale": clusterScale, "seed": base.seed}, "schemes": schemes}
	if raw, ok := c.do("grid", "POST", c.coord+"/grid?wait=1", grid); ok {
		c.grids = append(c.grids, gridAnswer{app: app, seed: base.seed, raw: raw, done: len(c.done) - 1})
	}
	for i := 0; i < coldPerRound; i++ {
		k := c.fresh(1)
		if raw, ok := c.do("cold", "POST", c.coord+"/run", k.request()); ok {
			a := &answer{key: k, raw: raw, done: len(c.done) - 1}
			c.colds = append(c.colds, a)
			c.answers = append(c.answers, a)
		}
	}
	for i := 0; i < hitsPerRound && len(c.colds) > 0; i++ {
		cold := c.colds[c.rng.Intn(len(c.colds))]
		if raw, ok := c.do("hit", "POST", c.coord+"/run", cold.key.request()); ok {
			c.hits = append(c.hits, &answer{key: cold.key, raw: raw, cold: cold})
		}
	}
	if c.respelledNext < len(c.colds) {
		// Each cold run is re-spelled once, so every re-spelling is new.
		k := c.colds[c.respelledNext].key
		sp := respellings[(c.respelledNext/len(simKernels))%len(respellings)]
		c.respelledNext++
		req := k.request()
		req[sp.field] = sp.value
		if raw, ok := c.do("respelled", "POST", c.coord+"/run", req); ok {
			c.answers = append(c.answers, &answer{key: k, raw: raw, done: len(c.done) - 1})
		}
	}
	// Store reads select a handful of records: a latest run by its full
	// key, and an aggregate over this round's grid seed.
	if len(c.colds) > 0 {
		k := c.colds[len(c.colds)-1].key
		c.do("runs", "GET", fmt.Sprintf("%s/runs?latest=1&app=%s&scheme=%s&seed=%d",
			c.worker, k.app, url.QueryEscape(k.scheme.String()), k.seed), nil)
	}
	c.do("query", "GET", c.worker+"/query?q="+url.QueryEscape(
		fmt.Sprintf("select agg wall_s where app=%s and seed=%d", app, base.seed)), nil)
}

func getJSON(u string, v any) error {
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// phase is one measured run of the mix against one cluster.
type phase struct {
	conns  []*conn
	wall   time.Duration
	rss    float64
	spans  []spanRec
	coordM []series
	workM  []series
	keys   map[cfgKey]bool // distinct library configs simulated
}

func (p *phase) lat(kind string) []float64 {
	var out []float64
	for _, c := range p.conns {
		out = append(out, c.lat[kind]...)
	}
	return out
}

// rateWindows is how many equal windows a phase's throughput is split
// into; the reported rates are medians over the windows, which a burst of
// load from outside the benchmark moves less than a mean.
const rateWindows = 10

// rates returns the median per-window rate of requests, freshly
// simulated events and grid cells.
func (p *phase) rates() (requests, events, cells float64) {
	w := p.wall / rateWindows
	var req, ev, cl [rateWindows]float64
	for _, c := range p.conns {
		for _, d := range c.done {
			i := int(d.at / w)
			if i >= rateWindows {
				i = rateWindows - 1
			}
			req[i]++
			ev[i] += d.events
			cl[i] += d.cells
		}
	}
	per := func(xs [rateWindows]float64) float64 { return median(xs[:]) / w.Seconds() }
	return per(req), per(ev), per(cl)
}

func (p *phase) requests() (n int) {
	for _, c := range p.conns {
		n += c.requests
	}
	return n
}

// runPhase drives cl with clusterConns closed loops for budget and at
// least minRounds rounds in all (exactly minRounds when budget is 0),
// checks every answer, and stops cl.
func runPhase(o opts, r *run, cl *clusterProcs, budget time.Duration, minRounds int, spans bool, events map[string]uint64) *phase {
	p := &phase{keys: map[cfgKey]bool{}}
	var rounds sync.WaitGroup
	var mu sync.Mutex
	total := 0
	start := time.Now()
	for i := 0; i < clusterConns; i++ {
		c := &conn{
			coord: cl.coord.url, worker: cl.worker.url, events: events, lat: map[string][]float64{},
			rng: xrand.New(o.seed*0x9e3779b97f4a7c15 + uint64(i)), start: start,
			seedBase: o.seed<<32 | uint64(i)<<24,
		}
		p.conns = append(p.conns, c)
		rounds.Add(1)
		go func() {
			defer rounds.Done()
			for {
				// A round is counted when it starts, so a phase with no
				// budget runs exactly minRounds.
				mu.Lock()
				stop := time.Since(start) >= budget && total >= minRounds
				if !stop {
					total++
				}
				mu.Unlock()
				if stop {
					return
				}
				c.round()
			}
		}()
	}
	rounds.Wait()
	p.wall = time.Since(start)
	for _, c := range p.conns {
		c.decode()
		r.attempted += c.requests
		for _, f := range c.failures {
			r.fail("%s", f)
		}
		for _, a := range c.answers {
			p.keys[a.key] = true
		}
	}
	if spans {
		p.spans = collectSpans(r, cl)
		r.check("coordinator metrics", getJSON(cl.coord.url+"/metrics?format=json", &p.coordM))
		r.check("worker metrics", getJSON(cl.worker.url+"/metrics?format=json", &p.workM))
	}
	checkPhase(r, cl, p)
	p.rss = cl.stop()
	return p
}

// checkPhase compares every answer with an in-process sim.Run of the same
// library configuration, each hit with its cold answer, and the worker's
// store with what was written.
func checkPhase(r *run, cl *clusterProcs, p *phase) {
	want := simulateAll(p.keys)
	for _, c := range p.conns {
		for _, a := range c.answers {
			res := want[a.key]
			if res == nil {
				r.fail("%v: in-process run failed", a.key)
				continue
			}
			r.check("run answer", checkOutput(a.body, res))
		}
		for _, h := range c.hits {
			r.check(fmt.Sprintf("hit %v", h.key), checkHit(h.body, h.cold.body))
		}
	}

	r.attempted++
	var stored []struct {
		Key struct {
			App, Scheme string
			Seed        uint64
		} `json:"key"`
		Result *sim.Result `json:"result"`
	}
	if err := getJSON(cl.worker.url+"/runs?latest=1", &stored); err != nil {
		r.fail("GET /runs?latest=1: %v", err)
	} else {
		got := map[cfgKey]*sim.Result{}
		for _, s := range stored {
			got[cfgKey{s.Key.App, schemeByName[s.Key.Scheme], s.Key.Seed}] = s.Result
		}
		for k, res := range want {
			if res == nil {
				continue
			}
			if s := got[k]; s == nil {
				r.fail("store has no run for %v", k)
			} else {
				r.check(fmt.Sprintf("stored run %v", k), compareResults(s, res))
			}
		}
	}

	r.attempted++
	var table struct {
		Rows [][]string `json:"rows"`
	}
	if err := getJSON(cl.worker.url+"/query?q="+url.QueryEscape("select agg wall_s"), &table); err != nil {
		r.fail("GET /query: %v", err)
		return
	}
	perScheme := map[string]int{}
	for k := range p.keys {
		perScheme[k.scheme.String()]++
	}
	aggN := map[string]int{}
	for _, row := range table.Rows {
		if len(row) > 1 {
			aggN[row[0]], _ = strconv.Atoi(row[1])
		}
	}
	for s, n := range perScheme {
		if aggN[s] < n {
			r.fail("query agg reports n=%d for %s, %d distinct configs written", aggN[s], s, n)
		}
	}
}

// simulateAll runs every key in process on two goroutines.
func simulateAll(keys map[cfgKey]bool) map[cfgKey]*sim.Result {
	list := make([]cfgKey, 0, len(keys))
	for k := range keys {
		list = append(list, k)
	}
	out := make(map[cfgKey]*sim.Result, len(list))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan cfgKey)
	for i := 0; i < clusterConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				res, err := sim.Run(k.config())
				if err != nil {
					res = nil
				}
				mu.Lock()
				out[k] = res
				mu.Unlock()
			}
		}()
	}
	for _, k := range list {
		next <- k
	}
	close(next)
	wg.Wait()
	return out
}

// spanRec is one span of GET /trace.
type spanRec struct {
	Trace   string  `json:"trace"`
	Span    string  `json:"span"`
	Parent  string  `json:"parent"`
	Name    string  `json:"name"`
	StartUS int64   `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

func collectSpans(r *run, cl *clusterProcs) []spanRec {
	var out []spanRec
	for _, base := range []string{cl.coord.url, cl.worker.url} {
		r.attempted++
		resp, err := client.Get(base + "/trace")
		if err != nil {
			r.fail("GET /trace: %v", err)
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			var s spanRec
			if json.Unmarshal(sc.Bytes(), &s) == nil {
				out = append(out, s)
			}
		}
		resp.Body.Close()
		r.check("read /trace", sc.Err())
	}
	return out
}

// selfTimes aggregates span self time by name, in µs: a span's duration
// minus the part of it its children cover.
func selfTimes(spans []spanRec) map[string][]float64 {
	type iv struct{ lo, hi float64 }
	children := map[string][]iv{}
	for _, s := range spans {
		if s.Parent != "" {
			k := s.Trace + "/" + s.Parent
			children[k] = append(children[k], iv{float64(s.StartUS), float64(s.StartUS) + s.DurUS})
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		lo, hi := float64(s.StartUS), float64(s.StartUS)+s.DurUS
		kids := children[s.Trace+"/"+s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].lo < kids[j].lo })
		covered, end := 0.0, lo
		for _, k := range kids {
			a, b := max(k.lo, end), min(k.hi, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		out[s.Name] = append(out[s.Name], s.DurUS-covered)
	}
	return out
}

// series is one /metrics?format=json entry.
type series struct {
	Name  string   `json:"name"`
	Value *float64 `json:"value"`
}

func sumSeries(ss []series, name string) float64 {
	t := 0.0
	for _, s := range ss {
		if s.Name == name && s.Value != nil {
			t += *s.Value
		}
	}
	return t
}

// clusterWorkload is edbpd-cluster.
func clusterWorkload(o opts, r *run) error {
	if o.edbpd == "" {
		return fmt.Errorf("edbpd-cluster needs -edbpd")
	}
	events := map[string]uint64{}
	for _, name := range simKernels {
		t, err := workload.Cached(name, clusterScale)
		if err != nil {
			return err
		}
		events[name] = uint64(len(t.Events))
	}
	budget := time.Duration(o.seconds * float64(time.Second))

	if o.traced {
		plainCl, _, err := startCluster(o, o.tmp, false)
		if err != nil {
			plainCl.stop()
			return err
		}
		plain := runPhase(o, r, plainCl, budget*40/100, minRoundsTotal, false, events)
		tracedCl, _, err := startCluster(o, o.tmp, true)
		if err != nil {
			tracedCl.stop()
			return err
		}
		traced := runPhase(o, r, tracedCl, budget*40/100, minRoundsTotal, true, events)
		clusterLayers(o, r, plain, traced)
		return setServiceLatencies(r, plain)
	}

	// Start-ups for setup_s; the last cluster then serves the fixed
	// amount of work peak_rss_mb is taken over.
	var setups []float64
	var cl *clusterProcs
	for i := 0; i < clusterSetups; i++ {
		c, d, err := startCluster(o, o.tmp, false)
		if err != nil {
			c.stop()
			return err
		}
		setups = append(setups, d.Seconds())
		if i < clusterSetups-1 {
			c.stop()
			continue
		}
		cl = c
	}
	rss := runPhase(o, r, cl, 0, rssRounds, false, events).rss

	cl, _, err := startCluster(o, o.tmp, false)
	if err != nil {
		cl.stop()
		return err
	}
	p := runPhase(o, r, cl, budget, minRoundsTotal, false, events)

	reqRate, evRate, cellRate := p.rates()
	r.set("setup_s", median(setups), "s")
	r.set("peak_rss_mb", rss, "MB")
	r.set("events_per_s", evRate, "1/s")
	r.set("requests_per_s", reqRate, "1/s")
	r.set("grid_cells_per_s", cellRate, "1/s")
	r.set("run_cold_p50_ms", quantile(p.lat("cold"), 0.5), "ms")
	return nil
}

// setServiceLatencies reports the untraced phase's latency percentiles
// that only edbpd-cluster has, and the cold-run tail.
func setServiceLatencies(r *run, p *phase) error {
	hit, reads := p.lat("hit"), append(p.lat("runs"), p.lat("query")...)
	if !tailOK(len(hit), 0.99) || !tailOK(len(reads), 0.9) {
		return fmt.Errorf("too few samples for the tail percentiles: %d hits, %d reads", len(hit), len(reads))
	}
	r.set("run_hit_p50_ms", quantile(hit, 0.5), "ms")
	r.set("run_hit_p99_ms", quantile(hit, 0.99), "ms")
	r.set("run_respelled_p50_ms", quantile(p.lat("respelled"), 0.5), "ms")
	r.set("store_read_p50_ms", quantile(reads, 0.5), "ms")
	r.set("store_read_p90_ms", quantile(reads, 0.9), "ms")
	return setColdTail(r, p.lat("cold"))
}

// clusterLayers reports edbpd-cluster's per-layer metrics: service layers
// from the traced phase's spans and metrics, simulator layers from
// replays of the mix's kernels, and the tracing overhead.
func clusterLayers(o opts, r *run, plain, traced *phase) {
	self := selfTimes(traced.spans)
	meanOf := func(name string) float64 { return mean(self[name]) / 1e3 } // ms
	r.set("cluster.dispatch_ms", meanOf("dispatch"), "ms")
	r.set("edbpd.queue_wait_ms", meanOf("queue-wait"), "ms")
	r.set("edbpd.simulate_ms", meanOf("simulate"), "ms")
	r.set("edbpd.cache_lookup_us", meanOf("cache-lookup")*1e3, "us")
	r.set("http.run_ms", meanOf("POST /run"), "ms")
	r.set("store.append_ms", meanOf("store-append"), "ms")
	r.set("store.query_ms", meanOf("GET /query"), "ms")
	r.set("store.runs_ms", meanOf("GET /runs"), "ms")
	r.set("cluster.dispatch_attempts", sumSeries(traced.coordM, "edbpd_cluster_dispatch_total")+
		sumSeries(traced.coordM, "edbpd_cluster_retries_total"), "count")
	r.set("edbpd.simulations", sumSeries(traced.workM, "edbpd_runs_ok_total"), "count")
	r.set("edbpd.distinct_configs", float64(len(traced.keys)), "count")
	r.set("store.records", sumSeries(traced.workM, "edbpd_store_records"), "count")
	r.set("span.dropped", sumSeries(traced.coordM, "edbpd_spans_dropped_total")+
		sumSeries(traced.workM, "edbpd_spans_dropped_total"), "count")
	// Requests per second, traced against untraced.
	r.set("trace.overhead_pct", (float64(plain.requests())/plain.wall.Seconds()/
		(float64(traced.requests())/traced.wall.Seconds())-1)*100, "%")

	ks, setup := setupKernels(r, simKernels, clusterScale, energy.RFHome, o.seed)
	a := newSimAcc()
	sweepsFor(r, ks, energy.RFHome, o.seed, 0, 1, nil, a)
	setLayerCosts(r, measureLayers(ks, energy.RFHome, o.seed), ks, a)
	r.set("workload.record_ms", median(setup.record), "ms")
	r.set("energy.trace_gen_ms", median(setup.traceGen), "ms")
}
