package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"casvm/internal/cluster"
	"casvm/internal/serve"
)

// Tiny versions of every workload: same code paths, seconds-scale inputs.
var (
	tinyDense  = suiteSpec{dataset: "ijcnn", scale: 0.05, p: 4}
	tinySparse = suiteSpec{dataset: "webspam", scale: 0.03, p: 4}
	tinyServe  = serveSpec{dataset: "face", scale: 0.1, p: 4, budget: 8, queries: 16, blocks: 4, rate: 100}
	tinyRemote = remoteSpec{dataset: "ijcnn", scale: 0.05, p: 2, executors: 2}
)

var tinyWorkloads = map[string]func(r *run) error{
	"dense-suite":  func(r *run) error { return runSuite(r, tinyDense) },
	"sparse-suite": func(r *run) error { return runSuite(r, tinySparse) },
	"serve-face":   func(r *run) error { return runServe(r, tinyServe) },
	"remote-raca":  func(r *run) error { return runRemote(r, tinyRemote) },
}

// runTiny runs one workload and returns its parsed result line.
func runTiny(t *testing.T, runner func(*run) error, traced bool) (*run, resultJSON) {
	t.Helper()
	r := &run{seed: 3, seconds: 300 * time.Millisecond, log: io.Discard}
	if traced {
		r.tr = newTracer()
	}
	if err := runner(r); err != nil {
		t.Fatal(err)
	}
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := r.print(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return r, got
}

// TestWorkloadsPrintEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks that each named metric is printed with its unit
// and that every output check passed.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	// The layers each workload must exercise: a traced run reports them
	// nonzero.
	exercised := map[string][]string{
		"dense-suite":  {"mpi.msgs", "kernel.flops", "smo.iters", "kmeans.iters", "core.virt_s.ca", "pool.speedup"},
		"sparse-suite": {"mpi.bytes", "kernel.rowfill_n", "smo.update_s", "partition.init_s", "train_s.tree"},
		"serve-face":   {"serve.decode_s", "model.predict_all_s", "serve.batch_queries", "serve.http_ms"},
		"remote-raca":  {"cluster.dispatch_s", "cluster.fleet_frames", "tcpmpi.mesh_s", "tcpmpi.allreduce_us"},
	}
	for name, runner := range tinyWorkloads {
		for _, traced := range []bool{false, true} {
			r, res := runTiny(t, runner, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d invalid=%q",
					name, traced, res.Correct, res.Attempted, res.Failed, r.invalid)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if traced {
				for _, l := range exercised[name] {
					if res.Metrics[l].Value <= 0 {
						t.Errorf("%s: layer metric %s = %v, want > 0", name, l, res.Metrics[l].Value)
					}
				}
			}
		}
	}
}

// TestExactCountersRepeat: two traced runs of one seed report identical
// deterministic counters.
func TestExactCountersRepeat(t *testing.T) {
	exact := []string{"smo.iters", "kernel.flops", "kernel.rowfill_n", "mpi.msgs", "mpi.bytes",
		"mpi.collective_n", "core.virt_s.dissmo", "core.virt_s.tree", "core.virt_s.ca", "kmeans.iters"}
	_, a := runTiny(t, tinyWorkloads["dense-suite"], true)
	_, b := runTiny(t, tinyWorkloads["dense-suite"], true)
	for _, name := range exact {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
}

// flipFirstLabel is a transport that negates the first served label of
// every other response.
type flipFirstLabel struct {
	next http.RoundTripper
	n    *atomic.Int64
}

func (f flipFirstLabel) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(req)
	if err != nil || resp.StatusCode != http.StatusOK || f.n.Add(1)%2 == 0 {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, err
	}
	pr.Labels[0] = -pr.Labels[0]
	if body, err = json.Marshal(pr); err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

func TestCorruptedPredictionFails(t *testing.T) {
	spec := tinyServe
	var n atomic.Int64
	spec.wrap = func(rt http.RoundTripper) http.RoundTripper { return flipFirstLabel{rt, &n} }
	_, res := runTiny(t, func(r *run) error { return runServe(r, spec) }, false)
	if res.Correct || res.Failed == 0 || res.Failed == res.Attempted {
		t.Fatalf("corrupted predictions passed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestMismatchedRemoteHashFails(t *testing.T) {
	spec := tinyRemote
	spec.tamper = func(res *cluster.JobResult) { res.ModelHash = "0" + res.ModelHash[1:] }
	r := &run{seed: 3, seconds: 300 * time.Millisecond, log: io.Discard}
	err := runRemote(r, spec)
	if r.failed == 0 || r.failed != r.attempted {
		t.Fatalf("forged hashes passed: failed=%d of %d (err %v)", r.failed, r.attempted, err)
	}
}

// TestBenchmarkJSON: the repository's BENCHMARK.json names exactly the
// workloads and metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type def struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != better {
				t.Errorf("%s[%d] = %+v, program prints %s %s %s", kind, i, g, w.name, w.unit, better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 2, Start: 20, End: 25},
	}
	selfTimes(spans)
	for i, want := range []int64{100 - 50 - 10, 30 - 5, 30, 30, 5} {
		if spans[i].Self != want {
			t.Errorf("span %d self %d, want %d", spans[i].ID, spans[i].Self, want)
		}
	}
}
