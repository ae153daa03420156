// Genuinely distributed CA-SVM over TCP: one OS process per node, the
// casvm2 placement of the paper. An elastic cluster coordinator
// (internal/cluster) gang-schedules a Remote RA-CA job onto -p forked
// executor processes; each executor trains its shard ranks in its own
// process with zero training communication, over a tcpmpi mesh
// bootstrapped through the lease protocol, and streams epoch-boundary
// checkpoints and the finished shard models back over its lease. The demo
// runs the job twice — fault-free, then with a kill -9 on one executor
// mid-epoch — and exits non-zero unless both land on the same ModelHash:
//
//	go run ./examples/distributed -cluster -p 2
//
// The same runtime is the casvm-cluster command: `casvm-cluster -join`
// runs an executor, and `casvm-cluster -fleet-trace DIR` writes each
// finished job's merged cross-process trace for casvm-profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"time"

	"casvm/internal/cluster"
	"casvm/internal/trace"
)

func main() {
	var (
		clusterDemo = flag.Bool("cluster", false, "run the cluster-executor demo: a coordinator gang-schedules a Remote job onto -p forked executor processes, kill -9s one mid-epoch, and verifies the recovered ModelHash")
		p           = flag.Int("p", 4, "job width and executor count (with -cluster)")
		execAddr    = flag.String("executor", "", "executor worker mode: register with the cluster coordinator at this address and train assigned shard ranks in-process")
		execDelay   = flag.Duration("exec-delay", 0, "executor worker mode: per-iteration training delay (stretches solves so deaths land mid-epoch)")
	)
	flag.Parse()

	switch {
	case *clusterDemo:
		runClusterDemo(*p)
	case *execAddr != "":
		if err := cluster.RunExecutor(context.Background(), *execAddr, cluster.ExecutorOptions{
			Fleet: true, IterDelay: *execDelay, Logf: log.Printf,
		}); err != nil {
			log.Fatalf("executor: %v", err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runClusterDemo is the remote-execution walkthrough: a cluster
// coordinator gang-schedules a Remote RA-CA job onto p forked executor
// processes (each solving its shard ranks in its own process, checkpoints
// streaming back over the lease), then repeats the run with a kill -9 on
// one executor mid-epoch. The coordinator re-gangs the survivors from the
// streamed checkpoints, and the demo fails unless the recovered run lands
// on the exact fault-free ModelHash.
func runClusterDemo(p int) {
	start := time.Now()
	stamp := func(format string, a ...any) {
		fmt.Printf("[%6.2fs] "+format+"\n", append([]any{time.Since(start).Seconds()}, a...)...)
	}
	coord, err := cluster.New("127.0.0.1:0", cluster.Config{
		LeaseTTL: 2 * time.Second,
		Metrics:  trace.NewRegistry(),
		Logf:     log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	stamp("coordinator listening on %s", coord.Addr())

	var workers []*exec.Cmd
	spawnExecutor := func() {
		cmd := exec.Command(os.Args[0], "-executor", coord.Addr(), "-exec-delay", "2ms")
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		workers = append(workers, cmd)
	}
	defer func() {
		for _, cmd := range workers {
			if cmd.Process != nil {
				cmd.Process.Kill()
			}
			cmd.Wait()
		}
	}()
	for i := 0; i < p; i++ {
		spawnExecutor()
	}
	deadline := time.Now().Add(15 * time.Second)
	for len(coord.Workers()) < p {
		if time.Now().After(deadline) {
			log.Fatalf("only %d/%d executors registered", len(coord.Workers()), p)
		}
		time.Sleep(20 * time.Millisecond)
	}
	stamp("%d executor processes registered", p)

	spec := cluster.JobSpec{
		ID: "demo-ref", Dataset: "toy", Scale: 0.25,
		Method: "ra-ca", P: p, Seed: 1,
		Policy: "shrink", CheckpointEvery: 8, Remote: true,
	}
	stamp("fault-free reference: submitting Remote job (each rank solves in its worker's process)")
	ref := runDemoJob(coord, spec)
	stamp("reference hash %s (%d iterations, %d SVs)", ref.ModelHash, ref.Iters, ref.SVs)

	spec.ID = "demo-kill"
	stamp("kill run: same job, but a worker dies mid-epoch")
	j, err := coord.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	deadline = time.Now().Add(60 * time.Second)
	for {
		pr := j.Remote()
		if len(pr.CkptIters) >= p && len(pr.DoneRanks) == 0 {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("no mid-epoch window: progress %+v", pr)
		}
		time.Sleep(10 * time.Millisecond)
	}
	victim := workers[len(workers)-1]
	stamp("kill -9 executor pid %d (every rank has streamed a checkpoint; none has finished)", victim.Process.Pid)
	if err := victim.Process.Kill(); err != nil {
		log.Fatal(err)
	}
	go victim.Wait()
	<-j.Done()
	res := j.Result()
	if res.Err != "" {
		log.Fatalf("kill run failed: %s", res.Err)
	}
	stamp("recovered over %d generations (%d recover(ies), lost ranks %v, virtual time %.4fs)",
		res.Generations, res.Recoveries, res.LostRanks, res.TotalSec)
	if res.ModelHash != ref.ModelHash {
		log.Fatalf("recovered hash %s != fault-free %s", res.ModelHash, ref.ModelHash)
	}
	stamp("recovered hash %s == fault-free hash — kill -9 cost generations, not bits", res.ModelHash)
}

// runDemoJob submits one Remote job and blocks for its result.
func runDemoJob(coord *cluster.Coordinator, spec cluster.JobSpec) *cluster.JobResult {
	j, err := coord.Submit(spec)
	if err != nil {
		log.Fatal(err)
	}
	<-j.Done()
	res := j.Result()
	if res.Err != "" {
		log.Fatalf("job %s failed: %s", spec.ID, res.Err)
	}
	return res
}
