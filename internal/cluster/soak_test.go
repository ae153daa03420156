package cluster

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"

	"casvm/internal/core"
	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
	"casvm/internal/trace/critpath"
)

// TestClusterSoak churns a live coordinator for a bounded interval:
// a stream of shrink-policy jobs shares a pool whose workers are randomly
// revoked and replaced. Every job must terminate (completed or cleanly
// failed — no hangs), completed jobs must stay accurate, and the
// membership ledger must balance. Gated behind CASVM_SOAK_CLUSTER=1; run
// via `make soak-cluster`.
func TestClusterSoak(t *testing.T) {
	if os.Getenv("CASVM_SOAK_CLUSTER") != "1" {
		t.Skip("set CASVM_SOAK_CLUSTER=1 (or `make soak-cluster`) to run the cluster churn soak")
	}
	rng := rand.New(rand.NewSource(11))
	c := newTestCoordinator(t, 400*time.Millisecond)

	const poolSize = 6
	leases := map[int]*tcpmpi.Lease{}
	for i := 0; i < poolSize; i++ {
		l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{})
		if err != nil {
			t.Fatal(err)
		}
		leases[l.ID()] = l
	}
	defer func() {
		for _, l := range leases {
			l.Close()
		}
	}()
	waitFor(t, "pool registered", func() bool { return len(c.Workers()) == poolSize })

	methods := []core.Method{core.MethodDisSMO, core.MethodRACA, core.MethodCascade}
	var jobs []*Job
	for i := 0; i < 6; i++ {
		spec := JobSpec{
			ID:      fmt.Sprintf("soak%d", i),
			Mixture: testMixture(240),
			Method:  string(methods[i%len(methods)]),
			P:       2 + i%3,
			Seed:    int64(100 + i),
			Policy:  "shrink", CheckpointEvery: 8,
		}
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		j.inj.setThrottle(time.Millisecond)
		jobs = append(jobs, j)
	}

	// Churn loop: revoke a random live worker, wait a beat, replace it.
	// Capacity always recovers, so shrink-policy jobs can grow back.
	stopChurn := make(chan struct{})
	churnDone := make(chan int)
	go func() {
		churns := 0
		defer func() { churnDone <- churns }()
		for {
			select {
			case <-stopChurn:
				return
			case <-time.After(150 * time.Millisecond):
			}
			ws := c.Workers()
			if len(ws) == 0 {
				continue
			}
			victim := ws[rng.Intn(len(ws))].ID
			if err := c.reg.Revoke(victim); err != nil {
				continue
			}
			if l := leases[victim]; l != nil {
				l.Close()
				delete(leases, victim)
			}
			churns++
			time.Sleep(100 * time.Millisecond)
			l, err := tcpmpi.Register(c.Addr(), tcpmpi.RegisterOptions{})
			if err == nil {
				leases[l.ID()] = l
			}
		}
	}()

	// Bounded soak: jobs run throttled under churn for up to 20s, then
	// full speed to drain.
	time.Sleep(20 * time.Second)
	close(stopChurn)
	churns := <-churnDone
	for _, j := range jobs {
		j.inj.setThrottle(0)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(180 * time.Second):
			t.Fatalf("job %s hung (state %v)", j.ID(), j.State())
		}
	}

	completed := 0
	for _, j := range jobs {
		res := j.Result()
		if res.Err != "" {
			t.Logf("job %s failed under churn: %s", j.ID(), res.Err)
			continue
		}
		completed++
		if res.Accuracy < 0.85 {
			t.Errorf("job %s accuracy %.3f under churn", j.ID(), res.Accuracy)
		}
		t.Logf("job %s: iters=%d recoveries=%d grows=%d finalP=%d",
			j.ID(), res.Iters, res.Recoveries, res.Grows, res.FinalP)
	}
	if completed < len(jobs)/2 {
		t.Fatalf("only %d/%d jobs completed under churn", completed, len(jobs))
	}
	snap := c.Metrics().Snapshot()
	t.Logf("soak: churns=%d joins=%v expiries=%v scaleups=%v completed=%d/%d",
		churns, snap["cluster_worker_joins_total"], snap["cluster_lease_expiries_total"],
		snap["cluster_job_scaleups_total"], completed, len(jobs))
	if snap["cluster_lease_expiries_total"] < 1 {
		t.Error("soak produced no lease expiries; churn loop never bit")
	}
	if snap["cluster_workers_busy"] != 0 {
		t.Errorf("cluster_workers_busy=%v after drain", snap["cluster_workers_busy"])
	}
}

// TestRemoteSoak is the remote-execution churn scenario: a stream of
// Remote jobs trains on a pool of real worker processes while a churn loop
// repeatedly kill -9s a random worker and forks a replacement. Every job
// must terminate, and every job that completes must land on the exact
// fault-free ModelHash of its local reference — re-ganging across process
// deaths may cost generations, never bits. Gated behind
// CASVM_SOAK_CLUSTER=1; run via `make soak-cluster`.
func TestRemoteSoak(t *testing.T) {
	if os.Getenv("CASVM_SOAK_CLUSTER") != "1" {
		t.Skip("set CASVM_SOAK_CLUSTER=1 (or `make soak-cluster`) to run the remote-execution churn soak")
	}
	rng := rand.New(rand.NewSource(13))
	c := newTestCoordinator(t, 500*time.Millisecond)

	// The churn goroutine forks and kills workers concurrently with test
	// shutdown, so the process ledger has its own lock and one terminal
	// cleanup that reaps whatever is still alive.
	var mu sync.Mutex
	var procs []*exec.Cmd
	spawn := func() error {
		cmd := exec.Command(os.Args[0], "-test.run", "TestRemoteExecutorHelper$")
		cmd.Env = append(os.Environ(),
			"CASVM_REMOTE_WORKER="+c.Addr(),
			"CASVM_EXEC_DELAY="+(2*time.Millisecond).String(),
		)
		if err := cmd.Start(); err != nil {
			return err
		}
		mu.Lock()
		procs = append(procs, cmd)
		mu.Unlock()
		return nil
	}
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, cmd := range procs {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			cmd.Wait()
		}
	})

	const poolSize = 3
	for i := 0; i < poolSize; i++ {
		if err := spawn(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "worker pool registered", func() bool { return len(c.Workers()) == poolSize })

	var jobs []*Job
	var wants []string
	for i := 0; i < 4; i++ {
		spec := remoteSpec(fmt.Sprintf("rsoak%d", i), 2, 240, "shrink")
		spec.Seed = int64(50 + i)
		wants = append(wants, referenceHash(t, spec))
		j, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	// Churn loop: kill -9 a random live worker process, fork a
	// replacement. The pool's capacity recovers, so queued remote jobs
	// always eventually find a gang.
	stopChurn := make(chan struct{})
	churnDone := make(chan int)
	go func() {
		churns := 0
		defer func() { churnDone <- churns }()
		for {
			select {
			case <-stopChurn:
				return
			case <-time.After(400 * time.Millisecond):
			}
			mu.Lock()
			var live []*exec.Cmd
			for _, cmd := range procs {
				if cmd.ProcessState == nil {
					live = append(live, cmd)
				}
			}
			mu.Unlock()
			if len(live) == 0 {
				continue
			}
			victim := live[rng.Intn(len(live))]
			if victim.Process.Kill() != nil {
				continue
			}
			go victim.Wait() // reap; cmd.Wait is not concurrent-safe with the cleanup, but the cleanup only runs after stopChurn
			churns++
			if err := spawn(); err != nil {
				t.Logf("remote soak: replacement worker: %v", err)
			}
		}
	}()

	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(180 * time.Second):
			close(stopChurn)
			<-churnDone
			t.Fatalf("remote job %s hung under churn (state %v, progress %+v)", j.ID(), j.State(), j.Remote())
		}
	}
	close(stopChurn)
	churns := <-churnDone

	completed, recoveries, generations := 0, 0, 0
	for i, j := range jobs {
		res := j.Result()
		if res.Err != "" {
			t.Logf("remote job %s failed under churn: %s", j.ID(), res.Err)
			continue
		}
		completed++
		recoveries += res.Recoveries
		generations += res.Generations
		if res.ModelHash != wants[i] {
			t.Errorf("remote job %s hash %s != fault-free %s", j.ID(), res.ModelHash, wants[i])
		}
		t.Logf("remote job %s: generations=%d recoveries=%d finalP=%d virt=%.4fs",
			j.ID(), res.Generations, res.Recoveries, res.FinalP, res.TotalSec)
	}
	if completed < len(jobs)/2 {
		t.Fatalf("only %d/%d remote jobs completed under churn", completed, len(jobs))
	}
	if churns >= 1 && recoveries == 0 && generations == completed {
		t.Logf("remote soak: %d kills never hit a gang member (small pool luck)", churns)
	}
	snap := c.Metrics().Snapshot()
	t.Logf("remote soak: churns=%d completed=%d/%d generations=%d recoveries=%d departures=%v",
		churns, completed, len(jobs), generations, recoveries,
		snap["cluster_lease_expiries_total"]+snap["cluster_worker_leaves_total"])
	if churns < 1 {
		t.Error("remote soak produced no kills; churn loop never bit")
	}
}

// TestFleetSoak is the full-stack fleet acceptance run: a Remote RA-CA job
// over four real executor processes, one of them slowed by a 10× larger
// per-iteration delay. Every shard streams its epochs and spans over its
// lease, and the coordinator probes each process's clock and merges one
// trace. The slow shard must be flagged as a straggler, and the merged
// trace must parse strictly, keep every cross-process edge causal after
// rebasing, and analyze end to end, with the injected delay dominating a
// critical path whose decomposition telescopes to the makespan. Gated
// behind CASVM_SOAK_CLUSTER=1; run via `make soak-cluster`.
func TestFleetSoak(t *testing.T) {
	if os.Getenv("CASVM_SOAK_CLUSTER") != "1" {
		t.Skip("set CASVM_SOAK_CLUSTER=1 (or `make soak-cluster`) to run the multi-process fleet soak")
	}
	c := newTestCoordinator(t, 2*time.Second)
	// Every shard solve takes more than 100 iterations, so 10ms each keeps
	// the slow one above a second; 1ms keeps the gang's median epoch above
	// the straggler detector's 1ms floor. The slow executor registers
	// last, so its lease id is known and it is not the start barrier's
	// root: the critical path then has a cross-process edge to cross.
	for i := 0; i < 3; i++ {
		spawnWorkerProcess(t, c.Addr(), time.Millisecond)
	}
	waitFor(t, "fast executors registered", func() bool { return len(c.Workers()) == 3 })
	fast := map[int]bool{}
	for _, w := range c.Workers() {
		fast[w.ID] = true
	}
	spawnWorkerProcess(t, c.Addr(), 10*time.Millisecond)
	waitFor(t, "slow executor registered", func() bool { return len(c.Workers()) == 4 })
	slow := -1
	for _, w := range c.Workers() {
		if !fast[w.ID] {
			slow = w.ID
		}
	}

	j, err := c.Submit(remoteSpec("fleet-soak", 4, 240, "shrink"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(180 * time.Second):
		t.Fatalf("fleet soak job never finished (progress %+v)", j.Remote())
	}
	if res := j.Result(); res.Err != "" || res.Generations != 1 {
		t.Fatalf("fleet soak job: err=%q generations=%d, want one clean generation", res.Err, res.Generations)
	}
	// One generation at full width: shard rank i ran on mesh member i.
	slowRank := -1
	for i, id := range j.Remote().Workers {
		if id == slow {
			slowRank = i
		}
	}
	if slowRank < 0 {
		t.Fatalf("slow executor %d not in the gang %v", slow, j.Remote().Workers)
	}

	fl := c.Fleet()
	flagged := false
	events, _ := fl.Events(0)
	for _, e := range events {
		if e.Job == j.ID() && e.Rank == slowRank {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("no straggler verdict for the slow executor's rank %d: %+v", slowRank, events)
	}

	var buf bytes.Buffer
	if err := fl.WriteMergedTrace(j.ID(), &buf); err != nil {
		t.Fatal(err)
	}
	x, err := trace.ReadTraceExtra(&buf)
	if err != nil {
		t.Fatalf("merged trace does not parse strictly: %v", err)
	}
	if x.P != 4 {
		t.Fatalf("merged trace P = %d, want 4", x.P)
	}
	if x.Timebase != trace.TimebaseWall {
		t.Fatalf("timebase %q, want %q", x.Timebase, trace.TimebaseWall)
	}
	if len(x.ClockOffsetsNs) != 4 {
		t.Fatalf("clock offsets %v, want 4 entries", x.ClockOffsetsNs)
	}
	if len(x.Edges) == 0 {
		t.Fatal("merged trace has no cross-process flow edges")
	}
	for _, e := range x.Edges {
		if e.RecvVirtSec < e.SendVirtSec || e.RecvWallNs < e.SendWallNs {
			t.Fatalf("causality violated after rebase: %+v", e)
		}
	}
	a, err := critpath.Analyze(critpath.FromExtra(x))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fleet soak: %d straggler verdict(s); critical path %.3fs ending on rank %d (%d cross-rank hops): comp %.3fs, latency %.3fs, wait %.3fs",
		len(events), a.MakespanSec, a.EndRank, a.Hops, a.CompSec, a.LatencySec, a.WaitSec)
	// The slow shard's injected delay (over a second) dominates the
	// makespan; the path ends on its rank and reaches it from the start
	// barrier's root over real cross-process edges.
	if a.MakespanSec < 0.9 || a.EndRank != slowRank {
		t.Fatalf("makespan %.3fs ending on rank %d, want ≥ 0.9s on rank %d (straggler not on the path?)",
			a.MakespanSec, a.EndRank, slowRank)
	}
	if a.Hops < 1 {
		t.Fatal("critical path crosses no process boundary")
	}
	if diff := math.Abs(a.Sum() - a.MakespanSec); diff > 1e-9*a.MakespanSec {
		t.Fatalf("decomposition %.9fs != makespan %.9fs", a.Sum(), a.MakespanSec)
	}
}
