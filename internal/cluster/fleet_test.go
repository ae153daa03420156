package cluster

import (
	"bytes"
	"testing"
	"time"

	"casvm/internal/core"
	"casvm/internal/tcpmpi"
	"casvm/internal/telemetry/fleet"
	"casvm/internal/trace"
)

// TestFleetFramesOverCoordinator is the wiring test for the fleet plane on
// the real cluster coordinator: a worker lease ships hello, spans, metrics
// and epoch reports over the same connection that makes it gang capacity,
// and the coordinator routes them to its collector — including federation
// into a finished job's /jobs/<id>/metrics registry and the OnJobDone hook
// casvm-cluster persists merged traces from.
func TestFleetFramesOverCoordinator(t *testing.T) {
	doneJobs := make(chan *Job, 4)
	c, err := New("localhost:0", Config{
		LeaseTTL:  time.Second,
		Logf:      t.Logf,
		Straggler: fleet.StragglerConfig{Factor: 1.5, MinRanks: 3},
		OnJobDone: func(j *Job) { doneJobs <- j },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// A real job, so the federated fleet_* gauges land in the registry
	// the telemetry server serves under /jobs/<id>/metrics.
	spec := JobSpec{ID: "fleet", Mixture: testMixture(160), Method: string(core.MethodRACA), P: 1, Seed: 1}
	registerWorkers(t, c, 1)
	j, err := c.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case dj := <-doneJobs:
		if dj != j {
			t.Fatalf("OnJobDone delivered %v, want %v", dj.ID(), j.ID())
		}
	case <-j.Done():
		// finishJob calls the hook before Done observers run their next
		// poll, but either order is fine — drain the hook now.
		select {
		case <-doneJobs:
		case <-time.After(5 * time.Second):
			t.Fatal("OnJobDone never fired")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job never finished")
	}

	// Three fleet leases report against the finished job's id: spans on
	// rank 0, a metric snapshot each, and epoch durations with rank 2
	// running 4× the median.
	jobID := j.ID()
	for rank := 0; rank < 3; rank++ {
		l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{Client: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		rep, err := fleet.NewReporter(l, jobID, rank, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rank == 0 {
			tl := trace.NewTimeline(3)
			tl.Rank(0).AddEvent(trace.Event{
				Name: "scan", Cat: trace.CatSolver, Rank: 0,
				WallStartNs: time.Now().UnixNano(), WallDurNs: int64(time.Millisecond),
			})
			if err := rep.ShipTimeline(tl, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		mreg := trace.NewRegistry()
		mreg.Counter("casvm_iterations_total", "").Add(int64(10 * (rank + 1)))
		if err := rep.ShipMetrics(mreg); err != nil {
			t.Fatal(err)
		}
		d := 100 * time.Millisecond
		if rank == 2 {
			d = 400 * time.Millisecond
		}
		if err := rep.ReportEpoch(0, d); err != nil {
			t.Fatal(err)
		}
	}

	fl := c.Fleet()
	waitFor(t, "spans and straggler ingested", func() bool {
		ev, _ := fl.Events(0)
		return fl.HasTrace(jobID) && len(ev) == 1
	})
	ev, _ := fl.Events(0)
	if ev[0].Rank != 2 || ev[0].Job != jobID {
		t.Fatalf("straggler event %+v", ev[0])
	}

	waitFor(t, "metrics federated", func() bool {
		return j.Metrics().Snapshot()["fleet_casvm_iterations_total"] == 60
	})
	snap := c.Metrics().Snapshot()
	if snap["fleet_casvm_iterations_total"] != 60 {
		t.Fatalf("fleet-level federated sum %v, want 60", snap["fleet_casvm_iterations_total"])
	}
	if snap["cluster_straggler_detections_total"] != 1 {
		t.Fatalf("straggler total %v, want 1", snap["cluster_straggler_detections_total"])
	}
	if j.Metrics().Snapshot()["cluster_straggler_detections_total"] != 1 {
		t.Fatal("straggler count missing from the job registry")
	}

	var buf bytes.Buffer
	if err := fl.WriteMergedTrace(jobID, &buf); err != nil {
		t.Fatal(err)
	}
	x, err := trace.ReadTraceExtra(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if x.Timebase != trace.TimebaseWall || x.P != 3 {
		t.Fatalf("merged trace: timebase=%q p=%d", x.Timebase, x.P)
	}

	// Job-control traffic still works with the fleet routing in front.
	if _, err := SubmitAndWait(c.Addr(), JobSpec{
		Mixture: testMixture(160), Method: string(core.MethodRACA), P: 1, Seed: 1,
	}, 60*time.Second); err != nil {
		t.Fatalf("submit after fleet traffic: %v", err)
	}
}

// TestRemoteJobShipsFleetTrace: executors with fleet telemetry on ship
// each shard's solve span, and at full gang width the start barrier's
// cross-process flow edges, before the shard's rank-done frame. So the
// job's trace is complete the moment the job finishes — the point where
// casvm-cluster -fleet-trace writes it — and merges into a trace that
// parses strictly.
func TestRemoteJobShipsFleetTrace(t *testing.T) {
	c := newTestCoordinator(t, time.Second)
	startExecutors(t, c, 2, 0)
	j, err := c.Submit(remoteSpec("traced", 2, 160, "shrink"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatal("remote job never finished")
	}
	if res := j.Result(); res.Err != "" {
		t.Fatalf("remote job failed: %s", res.Err)
	}
	fl := c.Fleet()
	if !fl.HasTrace(j.ID()) || !fl.StreamComplete(j.ID()) {
		t.Fatalf("finished job's trace: HasTrace=%v StreamComplete=%v, want both",
			fl.HasTrace(j.ID()), fl.StreamComplete(j.ID()))
	}

	var buf bytes.Buffer
	if err := fl.WriteMergedTrace(j.ID(), &buf); err != nil {
		t.Fatal(err)
	}
	x, err := trace.ReadTraceExtra(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("merged trace does not parse strictly: %v", err)
	}
	if x.P != 2 || x.Timebase != trace.TimebaseWall {
		t.Fatalf("merged trace: P=%d timebase=%q, want 2 and %q", x.P, x.Timebase, trace.TimebaseWall)
	}
	if len(x.Edges) != 1 || x.Edges[0].Src != 0 || x.Edges[0].Dst != 1 {
		t.Fatalf("edges %+v, want the start barrier's one 0→1 hop", x.Edges)
	}
	if n := bytes.Count(buf.Bytes(), []byte(`"name":"shard-solve"`)); n != 2 {
		t.Fatalf("%d shard-solve spans in the merged trace, want 2", n)
	}
}
