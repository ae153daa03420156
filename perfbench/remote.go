package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"casvm/internal/cluster"
	"casvm/internal/core"
	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/tcpmpi"
	"casvm/internal/trace"
)

// remoteSpec is the remote-job workload: an in-process cluster coordinator
// with executor workers, fed back-to-back remote RA-CA jobs on an inline
// mixture. P must not exceed the executor count: gang scheduling would
// queue such a job forever.
type remoteSpec struct {
	dataset   string
	scale     float64
	p         int
	executors int
	// tamper, when non-nil, edits each job result before it is checked;
	// tests use it to forge a mismatched hash.
	tamper func(*cluster.JobResult)
}

var remoteRACA = remoteSpec{dataset: "ijcnn", scale: 1, p: 2, executors: 2}

// clusterEnv is a running coordinator and its executors.
type clusterEnv struct {
	coord  *cluster.Coordinator
	reg    *trace.Registry
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startCluster starts a coordinator and n executors (fleet telemetry on,
// as `casvm-cluster -join` runs them) and waits until all have registered.
func startCluster(n int) (*clusterEnv, error) {
	reg := trace.NewRegistry()
	coord, err := cluster.New("127.0.0.1:0", cluster.Config{Metrics: reg})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := &clusterEnv{coord: coord, reg: reg, cancel: cancel}
	for i := 0; i < n; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			// An executor that fails to register never counts as a
			// worker; the wait below reports it.
			_ = cluster.RunExecutor(ctx, coord.Addr(), cluster.ExecutorOptions{Fleet: true})
		}()
	}
	for deadline := time.Now().Add(30 * time.Second); len(coord.Workers()) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("only %d of %d executors registered", len(coord.Workers()), n)
		}
	}
	return e, nil
}

// close stops the executors, waits for them, then stops the coordinator.
func (e *clusterEnv) close() {
	e.cancel()
	e.wg.Wait()
	e.coord.Close()
}

// fleetFrames waits until the coordinator's fleet frame counter has been
// still for 20ms (a shard's goodbye frame can trail its job's result) and
// returns it.
func (e *clusterEnv) fleetFrames() float64 {
	last, still := -1.0, 0
	for deadline := time.Now().Add(2 * time.Second); still < 4 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		v := e.reg.Snapshot()["cluster_fleet_frames_total"]
		if v == last {
			still++
		} else {
			last, still = v, 0
		}
	}
	return last
}

// jobSpec is the submitted job: remote RA-CA over the inline mixture.
func (s remoteSpec) jobSpec(seed int64) (cluster.JobSpec, error) {
	entry, ok := data.Registry()[s.dataset]
	if !ok {
		return cluster.JobSpec{}, fmt.Errorf("no dataset %q", s.dataset)
	}
	ms := entry.Spec
	ms.Train = int(float64(ms.Train) * s.scale)
	ms.Test = int(float64(ms.Test) * s.scale)
	ms.Seed = seed
	return cluster.JobSpec{ID: "perfbench", Mixture: &ms, Method: string(core.MethodRACA),
		P: s.p, Policy: string(core.RecoverShrink), Remote: true}, nil
}

// referenceHash trains the job in-process, with the parameters the
// coordinator derives from the spec, and returns its ModelHash.
func referenceHash(spec cluster.JobSpec) (string, error) {
	ds, err := data.Generate(*spec.Mixture)
	if err != nil {
		return "", err
	}
	p := core.DefaultParams(core.Method(spec.Method), spec.P)
	p.Kernel = kernel.RBF(1 / float64(ds.Features()))
	p.Recovery = core.Recovery{Policy: core.RecoveryPolicy(spec.Policy)}
	out, err := core.Train(ds.X, ds.Y, p)
	if err != nil {
		return "", err
	}
	return core.ModelHash(out.Set)
}

func runRemote(r *run, spec remoteSpec) error {
	if spec.p > spec.executors {
		return fmt.Errorf("job width %d exceeds %d executors", spec.p, spec.executors)
	}
	var env *clusterEnv
	err := r.setup("cluster.setup", func() (err error) {
		if env != nil {
			env.close()
		}
		env, err = startCluster(spec.executors)
		return err
	})
	if err != nil {
		return err
	}
	defer env.close()

	job, err := spec.jobSpec(r.seed)
	if err != nil {
		return err
	}
	want, err := referenceHash(job)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	var lats, dispatch, frames []float64
	var prevFrames float64
	if r.tr != nil {
		prevFrames = env.fleetFrames()
	}
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < r.seconds; k++ {
		sp := r.tr.begin(0, fmt.Sprintf("job-%d", k), "cluster.SubmitAndWait")
		t0 := time.Now()
		res, err := cluster.SubmitAndWait(env.coord.Addr(), job, 2*time.Minute)
		lat := time.Since(t0).Seconds()
		r.tr.end(sp)
		if err == nil && spec.tamper != nil {
			spec.tamper(res)
		}
		if err == nil && res.ModelHash != want {
			err = fmt.Errorf("job %d: model hash %.12s, in-process reference %.12s", k, res.ModelHash, want)
		}
		if err != nil {
			r.op(err)
			continue
		}
		lats = append(lats, lat)
		if r.tr != nil {
			dispatch = append(dispatch, lat-res.WallSec)
			f := env.fleetFrames()
			frames = append(frames, f-prevFrames)
			prevFrames = f
			if frames[len(frames)-1] != frames[0] {
				err = fmt.Errorf("job %d: %v fleet frames, first job %v", k, frames[len(frames)-1], frames[0])
			}
		}
		r.op(err)
	}
	elapsed := time.Since(start).Seconds()
	if len(lats) == 0 {
		return errors.New("no job completed")
	}
	p50, p90 := quantile(lats, 0.5), quantile(lats, 0.9)
	r.set("op_p50_ms", 1e3*p50, "ms", len(lats))
	r.set("throughput_per_s", float64(len(lats))/elapsed, "1/s", len(lats))
	r.set("job_p50_s", p50, "s", len(lats))
	r.set("job_p90_s", p90, "s", len(lats))
	if r.tr == nil {
		return nil
	}
	r.set("cluster.dispatch_s", median(dispatch), "s", len(dispatch))
	r.set("cluster.fleet_frames", frames[0], "count", len(frames))
	return tcpmpiProbes(r)
}

// freeAddrs reserves n loopback ports and releases them for tcpmpi to bind.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		defer ln.Close() // held until every port is reserved, so none repeats
	}
	return addrs, nil
}

// mesh bootstraps a P=2 tcpmpi world and returns both ends.
func mesh() ([2]*tcpmpi.Comm, error) {
	var comms [2]*tcpmpi.Comm
	addrs, err := freeAddrs(2)
	if err != nil {
		return comms, err
	}
	var errs [2]error
	var wg sync.WaitGroup
	for rank := range comms {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comms[rank], errs[rank] = tcpmpi.DialOptions(rank, addrs, tcpmpi.Options{Timeout: 10 * time.Second})
		}(rank)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		closeMesh(comms)
		return comms, err
	}
	return comms, nil
}

func closeMesh(comms [2]*tcpmpi.Comm) {
	for _, c := range comms {
		if c != nil {
			c.Close()
		}
	}
}

// tcpmpiProbes times the TCP transport the remote jobs mesh over: mesh
// bootstrap, a small-message ping-pong, and a 256-value AllreduceSum.
func tcpmpiProbes(r *run) error {
	const meshes, pings, reduces = 5, 400, 200
	var meshS []float64
	var comms [2]*tcpmpi.Comm
	for i := 0; i < meshes; i++ {
		closeMesh(comms)
		sp := r.tr.begin(0, fmt.Sprintf("mesh-%d", i), "tcpmpi.DialOptions")
		t0 := time.Now()
		var err error
		comms, err = mesh()
		meshS = append(meshS, time.Since(t0).Seconds())
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("tcpmpi mesh: %w", err)
		}
	}
	defer closeMesh(comms)
	r.set("tcpmpi.mesh_s", median(meshS), "s", len(meshS))

	const tag = 7
	echo := make(chan error, 1)
	go func() {
		for i := 0; i < pings; i++ {
			b, err := comms[1].Recv(0, tag)
			if err == nil {
				err = comms[1].Send(0, tag, b)
			}
			if err != nil {
				echo <- err
				return
			}
		}
		echo <- nil
	}()
	var rtt []float64
	msg := make([]byte, 8)
	for i := 0; i < pings; i++ {
		sp := r.tr.begin(0, "pingpong", "tcpmpi.pingpong")
		t0 := time.Now()
		err := comms[0].Send(1, tag, msg)
		if err == nil {
			_, err = comms[0].Recv(1, tag)
		}
		rtt = append(rtt, float64(time.Since(t0))/1e3)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("tcpmpi ping-pong: %w", err)
		}
	}
	if err := <-echo; err != nil {
		return fmt.Errorf("tcpmpi ping-pong echo: %w", err)
	}
	r.set("tcpmpi.pingpong_us", median(rtt), "us", len(rtt))

	x := [2][]float64{make([]float64, 256), make([]float64, 256)}
	for i := range x[0] {
		x[0][i], x[1][i] = float64(i), float64(2*i+1)
	}
	var red []float64
	for i := 0; i < reduces; i++ {
		var got [2][]float64
		var errs [2]error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[1], errs[1] = comms[1].AllreduceSum(x[1])
		}()
		sp := r.tr.begin(0, "allreduce", "tcpmpi.AllreduceSum")
		t0 := time.Now()
		got[0], errs[0] = comms[0].AllreduceSum(x[0])
		red = append(red, float64(time.Since(t0))/1e3)
		r.tr.end(sp)
		wg.Wait()
		if err := errors.Join(errs[:]...); err != nil {
			return fmt.Errorf("tcpmpi allreduce: %w", err)
		}
		r.op(checkSum(got, x))
	}
	r.set("tcpmpi.allreduce_us", median(red), "us", len(red))
	return nil
}

// checkSum verifies both ranks' AllreduceSum results element by element.
func checkSum(got, x [2][]float64) error {
	for rank, g := range got {
		if len(g) != len(x[0]) {
			return fmt.Errorf("allreduce rank %d returned %d values, want %d", rank, len(g), len(x[0]))
		}
		for i, v := range g {
			if want := x[0][i] + x[1][i]; v != want {
				return fmt.Errorf("allreduce rank %d element %d = %v, want %v", rank, i, v, want)
			}
		}
	}
	return nil
}
