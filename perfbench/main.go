// Command perfbench is the casvm system benchmark. One invocation runs one
// workload in one process, checks every output the program produces, and
// prints its measurements:
//
//	bash perfbench/run.sh --workload dense-suite --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	dense-suite   every core method once per pass on ijcnn-shaped dense data,
//	              plus a single-node smo.Solve baseline
//	sparse-suite  the same pass on webspam-shaped CSR data
//	serve-face    the compressed face model behind serve.Start over HTTP:
//	              closed-loop and fixed-rate open-loop windows, alternating
//	remote-raca   back-to-back remote RA-CA jobs on an in-process cluster
//	              coordinator with two executors
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics, read
// from the layers' own counters (core.Stats, trace.Registry, the per-rank
// trace.Timeline) and from the benchmark's own spans around each layer
// call, which are written to .bench_build/spans/ when the run ends. The
// lines before it print every measurement by name with its unit and sample
// count.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one metric the benchmark publishes: its name, unit, and
// whether larger values are better.
type metricDef struct {
	name, unit string
	higher     bool
}

// endToEnd lists the metrics an untraced run prints, on every workload.
// The operation behind op_p50_ms is a full method pass on the suites, one
// 256-query request of the closed loop on serve-face, and one job on
// remote-raca; throughput counts passes, predictions and jobs. The 90th
// percentiles are printed on the summary lines only: a suite run has too
// few passes for one, and the open-loop tail swings with the host's load.
var endToEnd = []metricDef{
	{"setup_s", "s", false},
	{"op_p50_ms", "ms", false},
	{"throughput_per_s", "1/s", true},
}

// perLayer lists the metrics a traced run prints, on every workload. A
// layer the workload bypasses reads 0.
var perLayer = []metricDef{
	{"mpi.collective_s", "s", false},
	{"mpi.collective_n", "count", false},
	{"mpi.msgs", "count", false},
	{"mpi.bytes", "bytes", false},
	{"kernel.rowfill_s", "s", false},
	{"kernel.rowfill_n", "count", false},
	{"kernel.cache_hit_ratio", "ratio", true},
	{"kernel.cache_hits", "count", true},
	{"kernel.cache_misses", "count", false},
	{"kernel.flops", "count", false},
	{"smo.scan_s", "s", false},
	{"smo.update_s", "s", false},
	{"smo.shrink_s", "s", false},
	{"smo.iters", "count", false},
	{"pool.speedup", "ratio", true},
	{"partition.init_s", "s", false},
	{"kmeans.iters", "count", false},
	{"core.virt_s.dissmo", "s", false},
	{"core.virt_s.tree", "s", false},
	{"core.virt_s.ca", "s", false},
	{"train_s.dissmo", "s", false},
	{"train_s.tree", "s", false},
	{"train_s.ca", "s", false},
	{"train_s.single", "s", false},
	{"trace.overhead", "ratio", false},
	{"serve.decode_s", "s", false},
	{"model.predict_all_s", "s", false},
	{"serve.batch_queries", "count", true},
	{"serve.timer_flush_share", "ratio", false},
	{"serve.http_ms", "ms", false},
	{"serve.gen_late_ms", "ms", false},
	{"cluster.dispatch_s", "s", false},
	{"cluster.fleet_frames", "count", false},
	{"tcpmpi.mesh_s", "s", false},
	{"tcpmpi.pingpong_us", "us", false},
	{"tcpmpi.allreduce_us", "us", false},
}

// Each workload sets itself up at least setupMin times, and more while
// setupBudget lasts, up to setupMax; setup_s is the median, so a cold or
// slow start-up does not move it.
const (
	setupMin    = 5
	setupMax    = 50
	setupBudget = time.Second
)

// setup runs fn repeatedly under a span named name and reports the median
// duration as setup_s. fn keeps the environment of its last call.
func (r *run) setup(name string, fn func() error) error {
	var times []float64
	start := time.Now()
	for i := 0; i < setupMin || (i < setupMax && time.Since(start) < setupBudget); i++ {
		sp := r.tr.begin(0, "setup", name)
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
		r.tr.end(sp)
	}
	r.set("setup_s", median(times), "s", len(times))
	return nil
}

// measure is one reported value with the number of samples behind it.
type measure struct {
	name  string
	value float64
	unit  string
	n     int
}

// run carries one benchmark invocation: its inputs, the span tracer (nil
// when untraced), the operation tally and everything measured.
type run struct {
	seed    int64
	seconds time.Duration
	tr      *tracer
	log     io.Writer

	attempted, failed int64
	invalid           []string
	measures          []measure
}

// op tallies one attempted operation; a non-nil err marks it failed.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: FAIL %v\n", err)
	}
}

// invalidate marks the whole run's measurements untrustworthy.
func (r *run) invalidate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.invalid = append(r.invalid, msg)
	fmt.Fprintf(r.log, "perfbench: INVALID %s\n", msg)
}

// set records a measurement; a later set of the same name replaces it.
func (r *run) set(name string, value float64, unit string, n int) {
	for i := range r.measures {
		if r.measures[i].name == name {
			r.measures[i] = measure{name, value, unit, n}
			return
		}
	}
	r.measures = append(r.measures, measure{name, value, unit, n})
}

func (r *run) get(name string) (measure, bool) {
	for _, m := range r.measures {
		if m.name == name {
			return m, true
		}
	}
	return measure{}, false
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// result selects the published metric set: every end-to-end metric
// (untraced) or every per-layer metric (traced). A missing end-to-end
// metric is an error; a per-layer metric the workload never touched is 0.
func (r *run) result() (resultJSON, error) {
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   r.failed == 0 && len(r.invalid) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		m, ok := r.get(d.name)
		if !ok && r.tr == nil {
			return res, fmt.Errorf("workload produced no %s", d.name)
		}
		res.Metrics[d.name] = metricJSON{Value: m.value, Unit: d.unit}
	}
	return res, nil
}

// print writes one line per measurement (name, value, unit, samples), the
// error rate, and last the JSON result.
func (r *run) print(w io.Writer, res resultJSON) error {
	ms := append([]measure(nil), r.measures...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Fprintf(w, "# %-24s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "# %-24s %14.6g %-6s n=%d\n", "error_rate", rate, "ratio", r.attempted)
	for _, why := range r.invalid {
		fmt.Fprintf(w, "# invalid: %s\n", why)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(r *run) error{
	"dense-suite":  func(r *run) error { return runSuite(r, denseSuite) },
	"sparse-suite": func(r *run) error { return runSuite(r, sparseSuite) },
	"serve-face":   func(r *run) error { return runServe(r, faceServe) },
	"remote-raca":  func(r *run) error { return runRemote(r, remoteRACA) },
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: dense-suite, sparse-suite, serve-face, remote-raca")
		seed     = fs.Int64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 20, "measured duration")
		traced   = fs.Int("trace", 0, "1 records spans, written to .bench_build/spans/, and prints the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	r := &run{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), log: stderr}
	if *traced != 0 {
		r.tr = newTracer()
	}
	if err := runner(r); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	res, err := r.result()
	if err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	if r.tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *workload, *seed))
		if err := r.tr.writeFile(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stderr, "perfbench: spans written to %s\n", path)
	}
	return r.print(stdout, res)
}
