package main

import (
	"fmt"
	"runtime"
	"time"

	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/model"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// suiteSpec is a method-suite workload: a registry dataset at a scale,
// trained once per pass by every core method at P ranks (Threads=1 each),
// followed by one single-node smo.Solve on the full set at Threads=nproc.
type suiteSpec struct {
	dataset string
	scale   float64
	p       int
	// floors is the lowest test accuracy each method (and "single") may
	// reach on this workload before the call counts as failed.
	floors map[string]float64
}

// denseSuite is the paper's Table X setting: ijcnn shape, P=8. The floors
// sit below the lowest accuracy each method reached over seeds 1–30
// (FCFS-CA 0.963, the rest but RA-CA 0.979 or more). RA-CA's 750-row random
// shards are sample-starved (EXPERIMENTS.md, Tables XIII–XVIII): it reached
// 0.917 over those seeds and 0.897 at seed 50, around the 0.905 a
// majority-class guess scores, so its floor only catches a broken run.
var denseSuite = suiteSpec{dataset: "ijcnn", scale: 1, p: 8, floors: map[string]float64{
	"dissmo": 0.965, "cascade": 0.965, "dcsvm": 0.965, "dcfilter": 0.965,
	"cpsvm": 0.965, "bkm-ca": 0.965, "fcfs-ca": 0.94, "ra-ca": 0.85, "single": 0.965,
}}

// sparseSuite drives the CSR paths on webspam-shaped data. Scale 0.2 keeps
// one pass near five seconds on a 2-core host. Lowest accuracies over seeds
// 1–30, on 240 test rows: Dis-SMO and the trees 0.975, CP-SVM 0.938,
// FCFS-CA 0.871, BKM-CA 0.808, RA-CA 0.563 — its 150-row shards fall below
// the 0.6 majority-class rate, so its floor only catches a broken run.
var sparseSuite = suiteSpec{dataset: "webspam", scale: 0.2, p: 8, floors: map[string]float64{
	"dissmo": 0.95, "cascade": 0.95, "dcsvm": 0.95, "dcfilter": 0.95,
	"cpsvm": 0.88, "bkm-ca": 0.70, "fcfs-ca": 0.78, "ra-ca": 0.45, "single": 0.95,
}}

// timelineCap bounds each rank's recorded events in a traced pass. A
// dropped event would make the exact counters inexact, so drops
// invalidate the run instead.
const timelineCap = 1 << 18

const singleMethod = "single"

// families groups the methods as the train_s metrics report them.
var families = []string{"dissmo", "tree", "ca", "single"}

func family(method string) string {
	switch core.Method(method) {
	case core.MethodDisSMO:
		return "dissmo"
	case core.MethodCascade, core.MethodDCSVM, core.MethodDCFilter:
		return "tree"
	case singleMethod:
		return "single"
	}
	return "ca"
}

// fingerprint is the deterministic outcome of one training call. Every
// repeat of the call within a run, traced or not, must reproduce it.
type fingerprint struct {
	hash        string
	iters       int
	flops       float64
	msgs, bytes int64
	virt        float64
	kmeans      int
}

// exactCounts are the per-pass layer counters that must repeat exactly.
type exactCounts struct {
	collN, rowN          int
	flops                float64
	hits, misses, iters  int64
	msgs, bytes, kmeans  int64
	virtDisSMO, virtTree float64
	virtCA               float64
}

// layerTally sums one traced pass's layer timings and counters.
type layerTally struct {
	exactCounts
	collS, rowS, scanS, updateS, shrinkS, initS float64
	dropped                                     int64
}

// addTimeline folds a finished run's timeline and metrics into the tally.
func (t *layerTally) addTimeline(tl *trace.Timeline, reg *trace.Registry) {
	for _, e := range tl.Events() {
		sec := float64(e.WallDurNs) / 1e9
		switch e.Cat {
		case trace.CatCollective:
			t.collS += sec
			t.collN++
		case trace.CatKernel:
			t.rowS += sec
			t.rowN++
			t.flops += e.Flops
		case trace.CatSolver:
			switch e.Name {
			case "scan":
				t.scanS += sec
			case "update":
				t.updateS += sec
			case "shrink", "reconstruct":
				t.shrinkS += sec
			}
		case trace.CatInit:
			t.initS += sec
		}
	}
	t.dropped += tl.Dropped()
	snap := reg.Snapshot()
	t.hits += int64(snap["smo_row_cache_hits_total"])
	t.misses += int64(snap["smo_row_cache_misses_total"])
	t.iters += int64(snap["smo_iterations_total"])
}

// suite is a set-up suite workload.
type suite struct {
	spec    suiteSpec
	entry   data.Entry
	ds      *data.Dataset
	threads int
	// want holds each method's fingerprint from its first call.
	want map[string]fingerprint
}

func setupSuite(spec suiteSpec, seed int64) (*suite, error) {
	entry, ok := data.Registry()[spec.dataset]
	if !ok {
		return nil, fmt.Errorf("no dataset %q", spec.dataset)
	}
	ms := entry.Spec
	ms.Train = int(float64(ms.Train) * spec.scale)
	ms.Test = int(float64(ms.Test) * spec.scale)
	ms.Seed = seed
	ds, err := data.Generate(ms)
	if err != nil {
		return nil, err
	}
	return &suite{spec: spec, entry: entry, ds: ds, threads: runtime.NumCPU(), want: map[string]fingerprint{}}, nil
}

// checked compares a call's fingerprint and accuracy against the first
// call of the same method and the workload's floor.
func (s *suite) checked(method string, fp fingerprint, acc float64) error {
	if floor := s.spec.floors[method]; acc < floor {
		return fmt.Errorf("%s: test accuracy %.4f below floor %.2f", method, acc, floor)
	}
	want, seen := s.want[method]
	if !seen {
		s.want[method] = fp
		return nil
	}
	if fp != want {
		return fmt.Errorf("%s: repeat differs from first call: %+v, want %+v", method, fp, want)
	}
	return nil
}

// train runs one core.Train call; a non-nil tally attaches a timeline and
// metrics registry and folds them in.
func (s *suite) train(r *run, m core.Method, tally *layerTally, parent int, group string) (time.Duration, error) {
	p := core.DefaultParams(m, s.spec.p)
	p.C = s.entry.C
	p.Kernel = kernel.RBF(s.entry.GammaOrDefault())
	p.Threads = 1
	var tl *trace.Timeline
	var reg *trace.Registry
	if tally != nil {
		tl = trace.NewTimelineCap(s.spec.p, timelineCap)
		reg = trace.NewRegistry()
		p.Timeline, p.Metrics = tl, reg
	}
	sp := r.tr.begin(parent, group, "core.Train/"+string(m))
	t0 := time.Now()
	out, err := core.Train(s.ds.X, s.ds.Y, p)
	wall := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		return wall, fmt.Errorf("%s: %w", m, err)
	}
	hash, err := core.ModelHash(out.Set)
	if err != nil {
		return wall, fmt.Errorf("%s: %w", m, err)
	}
	st := out.Stats
	fp := fingerprint{hash: hash, iters: st.Iters, flops: st.TotalFlops, msgs: st.CommOps,
		bytes: st.CommBytes, virt: st.TotalSec, kmeans: st.KMeansIters}
	if tally != nil {
		tally.addTimeline(tl, reg)
		tally.msgs += st.CommOps
		tally.bytes += st.CommBytes
		tally.kmeans += int64(st.KMeansIters)
		switch family(string(m)) {
		case "dissmo":
			tally.virtDisSMO += st.TotalSec
		case "tree":
			tally.virtTree += st.TotalSec
		default:
			tally.virtCA += st.TotalSec
		}
	}
	return wall, s.checked(string(m), fp, out.Set.Accuracy(s.ds.TestX, s.ds.TestY))
}

// single runs the single-node smo.Solve baseline at the given thread count.
func (s *suite) single(r *run, threads int, tally *layerTally, parent int, group string) (time.Duration, error) {
	k := kernel.RBF(s.entry.GammaOrDefault())
	cfg := smo.Config{C: s.entry.C, Tol: 1e-3, Kernel: k, Threads: threads}
	var tl *trace.Timeline
	var reg *trace.Registry
	if tally != nil {
		tl = trace.NewTimelineCap(1, timelineCap)
		reg = trace.NewRegistry()
		cfg.Trace, cfg.Metrics = tl.Rank(0), reg
	}
	sp := r.tr.begin(parent, group, fmt.Sprintf("smo.Solve/threads=%d", threads))
	t0 := time.Now()
	res, err := smo.Solve(s.ds.X, s.ds.Y, cfg, nil)
	wall := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		return wall, fmt.Errorf("single: %w", err)
	}
	m := model.FromSolution(s.ds.X, s.ds.Y, res.Alpha, res.B, k)
	hash, err := core.ModelHash(model.Single(m, make([]float64, s.ds.Features())))
	if err != nil {
		return wall, fmt.Errorf("single: %w", err)
	}
	if tally != nil {
		tally.addTimeline(tl, reg)
	}
	fp := fingerprint{hash: hash, iters: res.Iters, flops: res.Flops}
	return wall, s.checked(singleMethod, fp, m.Accuracy(s.ds.TestX, s.ds.TestY))
}

// passResult is one pass's wall time per family.
type passResult map[string]float64

func (p passResult) total() float64 {
	var t float64
	for _, v := range p {
		t += v
	}
	return t
}

// pass trains every method once and runs the single-node baseline. A
// non-nil tally traces the pass.
func (s *suite) pass(r *run, k int, tally *layerTally) passResult {
	group := fmt.Sprintf("pass-%d", k)
	root := r.tr.begin(0, group, "pass")
	defer r.tr.end(root)
	res := passResult{}
	for _, m := range core.Methods() {
		wall, err := s.train(r, m, tally, root, group)
		r.op(err)
		res[family(string(m))] += wall.Seconds()
	}
	wall, err := s.single(r, s.threads, tally, root, group)
	r.op(err)
	res[singleMethod] += wall.Seconds()
	return res
}

func runSuite(r *run, spec suiteSpec) error {
	var s *suite
	err := r.setup("data.Generate", func() (err error) {
		s, err = setupSuite(spec, r.seed)
		return err
	})
	if err != nil {
		return err
	}
	if r.tr == nil {
		s.measure(r)
	} else {
		s.measureLayers(r)
	}
	return nil
}

// measure runs untraced passes for the measured duration and reports the
// median pass time, passes per second and the per-family training times.
func (s *suite) measure(r *run) {
	var passes []float64
	fam := map[string][]float64{}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < r.seconds; k++ {
		p := s.pass(r, k, nil)
		passes = append(passes, p.total())
		for f, v := range p {
			fam[f] = append(fam[f], v)
		}
	}
	r.set("op_p50_ms", 1e3*median(passes), "ms", len(passes))
	r.set("throughput_per_s", float64(len(passes))/sum(passes), "1/s", len(passes))
	for _, f := range families {
		r.set("train_s."+f, median(fam[f]), "s", len(fam[f]))
	}
}

// measureLayers alternates untraced and traced passes. Untraced passes give
// the per-family times, the Threads=1 single solve behind pool.speedup and
// the base of trace.overhead; traced passes give every layer counter, and
// their exact counters must agree pass to pass.
func (s *suite) measureLayers(r *run) {
	fam := map[string][]float64{}
	var plain, traced, solo, multi []float64
	var tallies []*layerTally
	start := time.Now()
	for k := 0; len(tallies) == 0 || time.Since(start) < r.seconds; k++ {
		if k%2 == 0 {
			p := s.pass(r, k, nil)
			plain = append(plain, p.total())
			for f, v := range p {
				fam[f] = append(fam[f], v)
			}
			multi = append(multi, p[singleMethod])
			wall, err := s.single(r, 1, nil, 0, fmt.Sprintf("pass-%d", k))
			r.op(err)
			solo = append(solo, wall.Seconds())
			continue
		}
		t := &layerTally{}
		traced = append(traced, s.pass(r, k, t).total())
		if t.dropped > 0 {
			r.invalidate("traced pass %d dropped %d timeline events", k, t.dropped)
		}
		if len(tallies) > 0 {
			var err error
			if t.exactCounts != tallies[0].exactCounts {
				err = fmt.Errorf("traced pass %d counters %+v differ from first traced pass %+v",
					k, t.exactCounts, tallies[0].exactCounts)
			}
			r.op(err)
		}
		tallies = append(tallies, t)
	}
	for _, f := range families {
		r.set("train_s."+f, median(fam[f]), "s", len(fam[f]))
	}
	r.set("pool.speedup", median(solo)/median(multi), "ratio", len(solo))
	r.set("trace.overhead", median(traced)/median(plain), "ratio", len(traced))

	n := len(tallies)
	pick := func(f func(t *layerTally) float64) float64 {
		xs := make([]float64, n)
		for i, t := range tallies {
			xs[i] = f(t)
		}
		return median(xs)
	}
	c := tallies[0].exactCounts
	r.set("mpi.collective_s", pick(func(t *layerTally) float64 { return t.collS }), "s", n)
	r.set("mpi.collective_n", float64(c.collN), "count", n)
	r.set("mpi.msgs", float64(c.msgs), "count", n)
	r.set("mpi.bytes", float64(c.bytes), "bytes", n)
	r.set("kernel.rowfill_s", pick(func(t *layerTally) float64 { return t.rowS }), "s", n)
	r.set("kernel.rowfill_n", float64(c.rowN), "count", n)
	if c.hits+c.misses > 0 {
		r.set("kernel.cache_hit_ratio", float64(c.hits)/float64(c.hits+c.misses), "ratio", n)
	}
	r.set("kernel.cache_hits", float64(c.hits), "count", n)
	r.set("kernel.cache_misses", float64(c.misses), "count", n)
	r.set("kernel.flops", c.flops, "count", n)
	r.set("smo.scan_s", pick(func(t *layerTally) float64 { return t.scanS }), "s", n)
	r.set("smo.update_s", pick(func(t *layerTally) float64 { return t.updateS }), "s", n)
	r.set("smo.shrink_s", pick(func(t *layerTally) float64 { return t.shrinkS }), "s", n)
	r.set("smo.iters", float64(c.iters), "count", n)
	r.set("partition.init_s", pick(func(t *layerTally) float64 { return t.initS }), "s", n)
	r.set("kmeans.iters", float64(c.kmeans), "count", n)
	r.set("core.virt_s.dissmo", c.virtDisSMO, "s", n)
	r.set("core.virt_s.tree", c.virtTree, "s", n)
	r.set("core.virt_s.ca", c.virtCA, "s", n)
}
