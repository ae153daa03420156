// Worker-side remote executor: the other half of the coordinator's
// generation protocol.
//
// RunExecutor holds a worker lease and serves the exec frame vocabulary:
// prepare reserves a mesh port, start dials the generation's tcpmpi world
// and trains the assigned shard ranks with core.RunShard — streaming
// epoch-boundary checkpoints back over the lease as it goes — and abort
// interrupts in-flight solves at the next iteration poll. With fleet
// telemetry on, each shard ships its solve span (and, at full gang width,
// the start barrier's cross-process flow edges) for the coordinator's
// merged trace. Killing the process (`kill -9` included) simply stops the
// lease heartbeats; the coordinator's expiry callback then drives
// shrink/respawn recovery from the checkpoints this executor already
// streamed.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"casvm/internal/core"
	"casvm/internal/model"
	"casvm/internal/smo"
	"casvm/internal/tcpmpi"
	"casvm/internal/telemetry/fleet"
	"casvm/internal/trace"
)

// ExecutorOptions tunes a RunExecutor worker.
type ExecutorOptions struct {
	// Fleet streams fleet telemetry (hello, epoch reports, trace spans,
	// metrics) for every shard rank the executor trains, letting the
	// coordinator's collector merge traces across gang generations.
	Fleet bool

	// IterDelay throttles the solver by sleeping this long every
	// iteration poll — tests and demos use it to hold a solve open long
	// enough to kill the process mid-epoch. 0 = full speed.
	IterDelay time.Duration

	// Logf receives one line per generation event (nil = silent).
	Logf func(format string, args ...any)
}

// Sentinel errors the executor's iteration poll injects into a solve.
var (
	errGenAborted = errors.New("cluster: generation aborted by coordinator")
	errLeaseLost  = errors.New("cluster: worker lease ended mid-solve")
)

// executor is the per-lease serving state.
type executor struct {
	l    *tcpmpi.Lease
	opts ExecutorOptions

	mu      sync.Mutex
	ports   map[string]string // "job/gen" -> reserved mesh address
	aborted map[string]int    // job -> highest aborted generation
}

func (e *executor) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

func (e *executor) abortedGen(job string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.aborted[job]
}

// RunExecutor registers with the coordinator at addr as a worker and
// serves remote rank execution until the lease ends (coordinator shutdown
// or revocation) or ctx is cancelled. It returns nil on a clean ctx-driven
// departure — the coordinator sees a leave, not an expiry.
func RunExecutor(ctx context.Context, addr string, opts ExecutorOptions) error {
	l, err := tcpmpi.Register(addr, tcpmpi.RegisterOptions{})
	if err != nil {
		return fmt.Errorf("cluster: register with %s: %w", addr, err)
	}
	e := &executor{
		l:       l,
		opts:    opts,
		ports:   map[string]string{},
		aborted: map[string]int{},
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
		case <-stop:
		}
	}()
	e.logf("executor: lease %d with %s", l.ID(), addr)
	for {
		tag, payload, err := l.RecvAny([]int{tagExecPrepare, tagExecStart, tagExecAbort}, 0)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if lerr := l.Err(); lerr != nil {
				return lerr
			}
			return err
		}
		switch tag {
		case tagExecPrepare:
			e.onPrepare(payload)
		case tagExecAbort:
			e.onAbort(payload)
		case tagExecStart:
			m, err := decodeExecStart(payload)
			if err != nil {
				e.logf("executor: %v", err)
				continue
			}
			e.mu.Lock()
			mesh, ok := e.ports[genKey(m.Job, m.Gen)]
			delete(e.ports, genKey(m.Job, m.Gen))
			e.mu.Unlock()
			if !ok {
				e.sendFail(m, -1, false, "start for a generation this worker never prepared")
				continue
			}
			// Generations run off the serving loop so aborts keep landing.
			go e.runGeneration(m, mesh)
		}
	}
}

func genKey(job string, gen int) string { return fmt.Sprintf("%s/%d", job, gen) }

// onPrepare reserves a TCP port for the generation's mesh listener and
// answers with the address. The listener is closed immediately — the port
// stays effectively reserved until tcpmpi re-binds it.
func (e *executor) onPrepare(payload []byte) {
	m, err := decodeExecPrepare(payload)
	if err != nil {
		e.logf("executor: %v", err)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.logf("executor: reserve mesh port: %v", err)
		return
	}
	addr := ln.Addr().String()
	ln.Close()
	e.mu.Lock()
	e.ports[genKey(m.Job, m.Gen)] = addr
	e.mu.Unlock()
	if err := e.l.Send(tagExecMeshAddr, marshalExec(execMeshAddr{Job: m.Job, Gen: m.Gen, Addr: addr})); err != nil {
		e.logf("executor: mesh-addr reply: %v", err)
	}
}

// onAbort records the coordinator's cancellation high-water mark; solves
// observe it at their next iteration poll.
func (e *executor) onAbort(payload []byte) {
	m, err := decodeExecAbort(payload)
	if err != nil {
		e.logf("executor: %v", err)
		return
	}
	e.mu.Lock()
	if m.Gen > e.aborted[m.Job] {
		e.aborted[m.Job] = m.Gen
	}
	e.mu.Unlock()
	e.logf("executor: job %s gen %d aborted: %s", m.Job, m.Gen, m.Reason)
}

func (e *executor) sendFail(m execStart, rank int, fatal bool, msg string) {
	err := e.l.Send(tagExecFail, marshalExec(execFail{
		Job: m.Job, Gen: m.Gen, Rank: rank, Fatal: fatal, Err: msg,
	}))
	if err != nil {
		e.logf("executor: fail report: %v", err)
	}
}

// runGeneration executes one generation on this worker: dial the mesh,
// clear the start barrier, then train the assigned shard ranks in order,
// streaming checkpoints and finished models back over the lease.
func (e *executor) runGeneration(m execStart, meshAddr string) {
	if e.abortedGen(m.Job) >= m.Gen {
		return
	}
	pr, ds, err := trainParams(m.Spec)
	if err != nil {
		// The spec cannot train anywhere; retrying on another gang
		// cannot fix it.
		e.sendFail(m, -1, true, err.Error())
		return
	}
	peers := append([]string(nil), m.Peers...)
	peers[m.MeshRank] = meshAddr
	// The mesh records flow edges by mesh rank. Mesh rank i is shard rank
	// i only at full width, where beginGeneration hands every worker
	// exactly its own mesh rank; only then are the edges valid in the
	// job's trace, so only then does the mesh record.
	var meshTL *trace.Timeline
	if e.opts.Fleet && len(peers) == m.Spec.P && len(m.Ranks) == 1 && m.Ranks[0] == m.MeshRank {
		meshTL = trace.NewTimeline(m.Spec.P)
	}
	comm, err := tcpmpi.DialOptions(m.MeshRank, peers, tcpmpi.Options{
		HeartbeatInterval:   500 * time.Millisecond,
		HeartbeatTimeout:    2 * time.Second,
		ReconnectAttempts:   2,
		ReconnectBackoffMax: 500 * time.Millisecond,
		Timeline:            meshTL,
	})
	if err != nil {
		// A gang member died (or never prepared) before the mesh came
		// up; the coordinator re-gangs the survivors.
		e.sendFail(m, -1, false, fmt.Sprintf("mesh dial: %v", err))
		return
	}
	defer comm.Close()
	// Start barrier: no rank trains until every gang member is meshed, so
	// a generation either launches whole or not at all.
	if _, err := comm.Bcast(0, []byte("go")); err != nil {
		e.sendFail(m, -1, false, fmt.Sprintf("start barrier: %v", err))
		return
	}
	e.logf("executor: job %s gen %d mesh rank %d/%d trains shard ranks %v",
		m.Job, m.Gen, m.MeshRank, len(peers), m.Ranks)

	// virt is this worker's cumulative α–β virtual time within the
	// generation: completed shard solves plus every checkpoint deposit's
	// modeled transport.
	var virt float64
	for _, rank := range m.Ranks {
		if e.abortedGen(m.Job) >= m.Gen {
			return
		}
		restore, err := remoteResumeCheckpoint(m.Resume[rank])
		if err != nil { // decodeExecStart already vetted the blob
			e.sendFail(m, rank, true, fmt.Sprintf("resume checkpoint: %v", err))
			return
		}
		var rep *fleet.Reporter
		var tl *trace.Timeline
		if e.opts.Fleet {
			if rep, err = fleet.NewReporter(e.l, m.Job, rank, m.Spec.P); err != nil {
				e.logf("executor: fleet hello: %v", err)
			}
			if tl = meshTL; tl == nil {
				tl = trace.NewTimeline(m.Spec.P)
			}
		}
		epoch := 0
		epochStart := time.Now()
		sink := func(ck *smo.Checkpoint) {
			blob := ck.Encode()
			virt += pr.Machine.PtoP(len(blob))
			frame := marshalExec(execCkpt{
				Job: m.Job, Gen: m.Gen, Rank: rank,
				Iters: ck.Iters, VirtSec: virt, Blob: blob,
			})
			if err := e.l.Send(tagExecCkpt, frame); err != nil {
				e.logf("executor: checkpoint deposit: %v", err)
			}
			if rep != nil {
				rep.ReportEpoch(epoch, time.Since(epochStart))
			}
			epoch++
			epochStart = time.Now()
		}
		interrupt := func(iter int) error {
			if e.opts.IterDelay > 0 {
				time.Sleep(e.opts.IterDelay)
			}
			if e.abortedGen(m.Job) >= m.Gen {
				return errGenAborted
			}
			select {
			case <-e.l.Done():
				return errLeaseLost
			default:
				return nil
			}
		}
		rec := tl.Rank(rank)
		solve := rec.Begin(trace.CatSolver, "shard-solve")
		sh, err := core.RunShard(ds.X, ds.Y, pr, core.ShardRun{
			Rank: rank, P: m.Spec.P,
			CheckpointEvery: m.CheckpointEvery,
			CheckpointSink:  sink,
			Restore:         restore,
			Interrupt:       interrupt,
		})
		if err != nil {
			if errors.Is(err, errGenAborted) || errors.Is(err, errLeaseLost) {
				return // the coordinator already knows why
			}
			e.sendFail(m, rank, true, err.Error())
			return
		}
		rec.End(solve)
		virt += sh.VirtSec
		var buf bytes.Buffer
		if err := model.SaveSet(&buf, model.Single(sh.Model, sh.Center)); err != nil {
			e.sendFail(m, rank, true, fmt.Sprintf("serialize shard model: %v", err))
			return
		}
		// Spans go out before the rank-done frame: frames on one lease
		// arrive in order, so a job's trace is complete by the time its
		// last shard lands (casvm-cluster -fleet-trace writes it then).
		if rep != nil {
			if err := rep.ShipTimeline(tl, 10*time.Second); err != nil {
				e.logf("executor: fleet spans: %v", err)
			}
		}
		done := marshalExec(execRankDone{
			Job: m.Job, Gen: m.Gen, Rank: rank,
			Iters: sh.Iters, SVs: sh.SVs, VirtSec: virt,
			Model: buf.Bytes(), Center: sh.Center,
		})
		if err := e.l.Send(tagExecRankDone, done); err != nil {
			e.logf("executor: rank-done report: %v", err)
			return
		}
		if rep != nil {
			rep.ShipMetrics(nil)
			rep.Goodbye()
		}
		e.logf("executor: job %s gen %d shard rank %d done (iters=%d svs=%d)",
			m.Job, m.Gen, rank, sh.Iters, sh.SVs)
	}
}
