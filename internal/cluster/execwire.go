// Remote-execution control frames on the lease connection.
//
// The coordinator drives a remote job's gang through a small JSON frame
// vocabulary in the 103–109 tag block (clear of the 101/102 submit pair and
// the fleet plane's 120–124): prepare → mesh-addr → start bootstraps each
// generation's tcpmpi mesh over the leases (each worker reserves a port and
// the coordinator answers with the full peer table), then checkpoint and
// rank-done frames stream worker → coordinator until the generation either
// completes or is aborted for a re-gang.
//
// Every worker → coordinator payload (and the coordinator → worker start
// frame on the executor side) crosses a trust boundary — a lease holder is
// remote and unauthenticated — so the decoders below validate structurally
// before any field is acted on, and are fuzzed (FuzzExecFrames) with their
// corpora wired into `make fuzz-smoke`.
package cluster

import (
	"encoding/json"
	"fmt"

	"casvm/internal/smo"
)

// Executor control-frame tags.
const (
	tagExecPrepare  = 103 // coordinator -> worker: reserve a mesh port for (job, gen)
	tagExecMeshAddr = 104 // worker -> coordinator: the reserved "host:port"
	tagExecStart    = 105 // coordinator -> worker: spec + rank assignment + peer table + resume blobs
	tagExecCkpt     = 106 // worker -> coordinator: one rank's epoch-boundary checkpoint
	tagExecRankDone = 107 // worker -> coordinator: one rank's trained shard model
	tagExecAbort    = 108 // coordinator -> worker: cancel the generation (re-gang pending)
	tagExecFail     = 109 // worker -> coordinator: a rank's solve failed
)

// execLimits bound structurally unbounded fields so a hostile frame cannot
// make the decoder allocate past the payload it paid for.
const (
	maxExecGangWidth  = 4096    // peer-table and rank-list entries
	maxExecSamples    = 1 << 22 // inline mixture train+test rows
	maxExecFeatures   = 1 << 14
	maxExecCenter     = 1 << 20 // routing-center floats in a rank-done frame
	maxExecModelBytes = 1 << 26 // serialized shard-model set in a rank-done frame
)

// execPrepare opens a generation: the worker reserves a TCP port for its
// mesh listener and answers with execMeshAddr.
type execPrepare struct {
	Job string `json:"job"`
	Gen int    `json:"gen"`
}

// execMeshAddr is the worker's reserved mesh address for one generation.
type execMeshAddr struct {
	Job  string `json:"job"`
	Gen  int    `json:"gen"`
	Addr string `json:"addr"`
}

// execStart launches one generation on one worker: the full job spec (the
// worker re-resolves the dataset deterministically — no sample data crosses
// the wire), the worker's mesh identity, and its assigned shard ranks with
// any resume checkpoints the coordinator collected from earlier
// generations.
type execStart struct {
	Job string  `json:"job"`
	Gen int     `json:"gen"`
	Spec JobSpec `json:"spec"`

	// MeshRank indexes Peers: this worker's position in the generation's
	// tcpmpi world. Peers lists every gang member's reserved mesh address
	// in mesh-rank order.
	MeshRank int      `json:"mesh_rank"`
	Peers    []string `json:"peers"`

	// Ranks are the shard ranks (in [0, Spec.P)) this worker trains this
	// generation, in execution order. Resume maps a rank to the last
	// checkpoint the coordinator holds for it (absent = solve from zero;
	// a Final checkpoint fast-forwards a shard that already converged).
	Ranks  []int          `json:"ranks"`
	Resume map[int][]byte `json:"resume,omitempty"`

	// CheckpointEvery is the effective deposit cadence in solver
	// iterations (the coordinator applies the spec default).
	CheckpointEvery int `json:"ckpt_every"`
}

// execCkpt streams one rank's epoch-boundary solver snapshot to the
// coordinator — the globally consistent resume point across generations.
type execCkpt struct {
	Job  string `json:"job"`
	Gen  int    `json:"gen"`
	Rank int    `json:"rank"`

	Iters int `json:"iters"`
	// VirtSec is the worker's α–β-modeled virtual time consumed in this
	// generation up to the deposit (init + checkpoint transport charges);
	// the coordinator prices re-gangs from the maximum it has seen.
	VirtSec float64 `json:"virt_sec"`
	Blob    []byte  `json:"blob"`
}

// execRankDone delivers one trained shard: the serialized single-model set,
// the routing center, and the rank's profile.
type execRankDone struct {
	Job  string `json:"job"`
	Gen  int    `json:"gen"`
	Rank int    `json:"rank"`

	Iters   int     `json:"iters"`
	SVs     int     `json:"svs"`
	VirtSec float64 `json:"virt_sec"` // cumulative on this worker within the generation
	Model   []byte  `json:"model"`
	Center  []float64 `json:"center"`
}

// execAbort cancels a generation: the worker interrupts its in-flight
// solves and discards the generation's mesh. Checkpoints already streamed
// remain valid — rank progress survives its generation.
type execAbort struct {
	Job    string `json:"job"`
	Gen    int    `json:"gen"`
	Reason string `json:"reason,omitempty"`
}

// execFail reports a rank solve the worker could not complete. Fatal marks
// job-level failures (bad spec, unresolvable dataset) that retrying on
// another generation cannot fix; non-fatal failures (mesh loss) trigger an
// ordinary re-gang.
type execFail struct {
	Job   string `json:"job"`
	Gen   int    `json:"gen"`
	Rank  int    `json:"rank"`
	Fatal bool   `json:"fatal,omitempty"`
	Err   string `json:"error"`
}

func marshalExec(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("cluster: exec frame marshal: %v", err)) // all frame types are marshalable
	}
	return b
}

// execIdent validates the (job, gen) pair every frame carries.
func execIdent(job string, gen int) error {
	if job == "" || len(job) > 256 {
		return fmt.Errorf("cluster: exec frame names no job")
	}
	if gen < 1 || gen > 1<<20 {
		return fmt.Errorf("cluster: exec frame generation %d out of range", gen)
	}
	return nil
}

func decodeExecPrepare(b []byte) (execPrepare, error) {
	var m execPrepare
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad prepare frame: %w", err)
	}
	return m, execIdent(m.Job, m.Gen)
}

func decodeExecMeshAddr(b []byte) (execMeshAddr, error) {
	var m execMeshAddr
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad mesh-addr frame: %w", err)
	}
	if err := execIdent(m.Job, m.Gen); err != nil {
		return m, err
	}
	if m.Addr == "" || len(m.Addr) > 256 {
		return m, fmt.Errorf("cluster: mesh-addr frame carries no address")
	}
	return m, nil
}

func decodeExecStart(b []byte) (execStart, error) {
	var m execStart
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad start frame: %w", err)
	}
	if err := execIdent(m.Job, m.Gen); err != nil {
		return m, err
	}
	s := m.Spec
	if s.P < 1 || s.P > maxExecGangWidth {
		return m, fmt.Errorf("cluster: start frame world width %d out of range", s.P)
	}
	if sp := s.Mixture; sp != nil {
		if sp.Train < 1 || sp.Train+sp.Test > maxExecSamples ||
			sp.Features < 1 || sp.Features > maxExecFeatures {
			return m, fmt.Errorf("cluster: start frame mixture %dx%d out of range", sp.Train+sp.Test, sp.Features)
		}
	} else if s.Dataset == "" {
		return m, fmt.Errorf("cluster: start frame names no dataset")
	}
	if len(m.Peers) < 1 || len(m.Peers) > maxExecGangWidth {
		return m, fmt.Errorf("cluster: start frame peer table of %d out of range", len(m.Peers))
	}
	if m.MeshRank < 0 || m.MeshRank >= len(m.Peers) {
		return m, fmt.Errorf("cluster: start frame mesh rank %d outside its %d-peer table", m.MeshRank, len(m.Peers))
	}
	for _, a := range m.Peers {
		if a == "" || len(a) > 256 {
			return m, fmt.Errorf("cluster: start frame peer table has an empty address")
		}
	}
	if len(m.Ranks) < 1 || len(m.Ranks) > s.P {
		return m, fmt.Errorf("cluster: start frame assigns %d ranks of %d", len(m.Ranks), s.P)
	}
	seen := map[int]bool{}
	for _, r := range m.Ranks {
		if r < 0 || r >= s.P || seen[r] {
			return m, fmt.Errorf("cluster: start frame shard rank %d invalid for p=%d", r, s.P)
		}
		seen[r] = true
	}
	if m.CheckpointEvery < 1 || m.CheckpointEvery > 1<<24 {
		return m, fmt.Errorf("cluster: start frame checkpoint cadence %d out of range", m.CheckpointEvery)
	}
	for r, blob := range m.Resume {
		if !seen[r] {
			return m, fmt.Errorf("cluster: start frame resumes rank %d it does not assign", r)
		}
		if _, err := smo.DecodeCheckpoint(blob); err != nil {
			return m, fmt.Errorf("cluster: start frame resume for rank %d: %w", r, err)
		}
	}
	return m, nil
}

func decodeExecCkpt(b []byte) (execCkpt, error) {
	var m execCkpt
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad checkpoint frame: %w", err)
	}
	if err := execIdent(m.Job, m.Gen); err != nil {
		return m, err
	}
	if m.Rank < 0 || m.Rank >= maxExecGangWidth {
		return m, fmt.Errorf("cluster: checkpoint frame rank %d out of range", m.Rank)
	}
	if m.Iters < 0 || m.VirtSec < 0 {
		return m, fmt.Errorf("cluster: checkpoint frame with negative progress")
	}
	ck, err := smo.DecodeCheckpoint(m.Blob)
	if err != nil {
		return m, fmt.Errorf("cluster: checkpoint frame blob: %w", err)
	}
	if ck.Iters != m.Iters {
		return m, fmt.Errorf("cluster: checkpoint frame iters %d disagree with blob %d", m.Iters, ck.Iters)
	}
	return m, nil
}

func decodeExecRankDone(b []byte) (execRankDone, error) {
	var m execRankDone
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad rank-done frame: %w", err)
	}
	if err := execIdent(m.Job, m.Gen); err != nil {
		return m, err
	}
	if m.Rank < 0 || m.Rank >= maxExecGangWidth {
		return m, fmt.Errorf("cluster: rank-done frame rank %d out of range", m.Rank)
	}
	if m.Iters < 0 || m.SVs < 0 || m.VirtSec < 0 {
		return m, fmt.Errorf("cluster: rank-done frame with negative stats")
	}
	if len(m.Model) == 0 || len(m.Model) > maxExecModelBytes {
		return m, fmt.Errorf("cluster: rank-done frame model of %d bytes out of range", len(m.Model))
	}
	if len(m.Center) < 1 || len(m.Center) > maxExecCenter {
		return m, fmt.Errorf("cluster: rank-done frame center of %d out of range", len(m.Center))
	}
	return m, nil
}

func decodeExecAbort(b []byte) (execAbort, error) {
	var m execAbort
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad abort frame: %w", err)
	}
	return m, execIdent(m.Job, m.Gen)
}

func decodeExecFail(b []byte) (execFail, error) {
	var m execFail
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("cluster: bad fail frame: %w", err)
	}
	if err := execIdent(m.Job, m.Gen); err != nil {
		return m, err
	}
	if m.Err == "" || len(m.Err) > 4096 {
		return m, fmt.Errorf("cluster: fail frame carries no error")
	}
	return m, nil
}
