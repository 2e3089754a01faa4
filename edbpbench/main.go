// Command edbpbench is the repository benchmark: it runs one workload for a
// fixed number of seconds, checks every output it produced against
// computations made apart from the simulator, and prints one JSON object as
// the last line of standard output. See README.md for the workloads, the
// metrics and the checks; run it through run.sh, which builds edbpd and
// edbpbench from the surrounding checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"edbp/internal/buildinfo"
	"edbp/internal/energy"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts carries the command line into a workload.
type opts struct {
	seed    uint64
	seconds float64
	traced  bool
	edbpd   string // path to the built edbpd binary
	tmp     string // scratch directory inside the checkout
}

// run is what one workload run accumulates: its operations, the failures
// its output checks found, and the metrics it reports.
type run struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
}

func newRun() *run { return &run{metrics: map[string]metric{}} }

// fail records one failed operation with the reason it failed.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 50 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check records a failed operation when err is non-nil.
func (r *run) check(what string, err error) {
	if err != nil {
		r.fail("%s: %v", what, err)
	}
}

func (r *run) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

var workloads = map[string]func(o opts, r *run) error{
	"sim-rfhome":    func(o opts, r *run) error { return simWorkload(o, r, energy.RFHome) },
	"sim-solar":     func(o opts, r *run) error { return simWorkload(o, r, energy.Solar) },
	"edbpd-cluster": clusterWorkload,
}

func main() {
	var (
		name    = flag.String("workload", "", "sim-rfhome | sim-solar | edbpd-cluster")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "how long the measured phase runs")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
		edbpd   = flag.String("edbpd", "", "edbpd binary (edbpd-cluster only)")
		tmp     = flag.String("tmp", "", "scratch directory for stores and temporary files")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || *tmp == "" || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "edbpbench: need -workload sim-rfhome|sim-solar|edbpd-cluster, -seconds > 0, -trace 0|1 and -tmp")
		os.Exit(2)
	}
	os.MkdirAll(*tmp, 0o755) // MkdirTemp reports a failure
	dir, err := os.MkdirTemp(*tmp, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "edbpbench:", err)
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: *seconds, traced: *traced == 1, edbpd: *edbpd, tmp: dir}

	commit := buildinfo.Commit()
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("edbpbench workload=%s seed=%d seconds=%g trace=%d commit=%s go=%s gomaxprocs=%d nproc=%d\n",
		*name, *seed, *seconds, *traced, commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	r := newRun()
	err = fn(o, r)
	os.RemoveAll(dir)
	if err != nil {
		// A workload that could not run to its end reports no result.
		fmt.Fprintln(os.Stderr, "edbpbench:", err)
		os.Exit(1)
	}
	if r.failed > r.attempted {
		r.attempted = r.failed
	}
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %16.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	out, err := json.Marshal(report{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "edbpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if r.failed > 0 {
		os.Exit(1)
	}
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// tailOK reports whether at least ten samples lie beyond the q-quantile,
// the least that makes a tail percentile more than one outlier.
func tailOK(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

// median of a few repeated measurements.
func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
