// Schedule-based fault injection: an explicit, seeded list of one-shot
// fault events, built either by hand (golden tests), by RandomSchedule
// (the chaos soak), or from a run report's faults block (replay).
//
// The probability-driven Injector re-fires CrashAtIter on every poll past
// the trigger, which is right for fail-fast tests but fatal for recovery:
// a respawned rank would crash again at the same iteration forever. A
// Schedule consumes each event exactly once, so a recovered run proceeds
// past the fault — the semantics checkpoint/restart needs.
//
// Drops deserve a note: the in-process runtime has no retransmission, so a
// truly dropped message deadlocks the collective waiting for it. A
// scheduled "drop" therefore models drop-plus-retransmit — the frame is
// delivered after RetransmitSec of virtual delay, the cost a transport
// timeout and resend would have charged. Real drops remain available
// through Plan.DropProb for transports that bound waiting (tcpmpi).
package faults

import (
	"fmt"
	"math/rand"
	"sync"

	"casvm/internal/mpi"
	"casvm/internal/trace"
)

// ScheduledFault is one planned fault. Rank triggers by sender (message
// faults, keyed by the rank's 1-based remote-send index Send) or by the
// training loop's iteration count (crash-iter/leave, keyed by Iter).
//
// Two membership events ride alongside the classic faults:
//
//   - "leave" models a lease expiry: the rank departs the world at
//     iteration ≥ Iter. It surfaces as a *mpi.CrashError (site
//     "lease expired"), so the existing respawn/shrink recovery policies
//     handle it exactly like a failure-detector verdict.
//   - "join" models a worker registering mid-run: consumed by JoinCheck
//     (polled at epoch boundaries, right after a checkpoint deposit), it
//     asks the supervisor to grow the world by one rank. Rank is ignored —
//     the joiner gets the next fresh rank id.
type ScheduledFault struct {
	Kind     string  // "crash-iter" | "crash-send" | "drop" | "delay" | "dup" | "corrupt" | "leave" | "join"
	Rank     int     // the faulting rank (sender for message faults; ignored for "join")
	Iter     int     // crash-iter/leave/join: fires at the first poll with iter ≥ Iter
	Send     int     // message faults: fires at the rank's first remote send with index ≥ Send
	DelaySec float64 // extra virtual latency for "delay" events
}

func (e ScheduledFault) String() string {
	switch e.Kind {
	case "crash-iter", "leave":
		return fmt.Sprintf("%s rank %d iter %d", e.Kind, e.Rank, e.Iter)
	case "join":
		return fmt.Sprintf("join iter %d", e.Iter)
	}
	return fmt.Sprintf("%s rank %d send #%d", e.Kind, e.Rank, e.Send)
}

// ScheduleOptions shapes RandomSchedule's draw.
type ScheduleOptions struct {
	// Kinds is the event vocabulary to draw from; nil means every kind.
	Kinds []string
	// MaxIter bounds crash-iter trigger iterations (default 64).
	MaxIter int
	// MaxSend bounds message-fault send indices (default 32).
	MaxSend int
	// DelaySec is the virtual latency of delay events (default 1e-3).
	DelaySec float64
	// MaxCrashes caps crash events so a schedule cannot exceed the
	// supervisor's restart budget (default 1).
	MaxCrashes int
}

// RandomSchedule draws n seeded events over p ranks. The same (seed, p, n,
// opts) always yields the same schedule, so a soak failure reproduces from
// its logged seed alone.
func RandomSchedule(seed int64, p, n int, opts ScheduleOptions) Schedule {
	kinds := opts.Kinds
	if kinds == nil {
		kinds = []string{"crash-iter", "crash-send", "drop", "delay", "dup", "corrupt"}
	}
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 64
	}
	maxSend := opts.MaxSend
	if maxSend <= 0 {
		maxSend = 32
	}
	delay := opts.DelaySec
	if delay <= 0 {
		delay = 1e-3
	}
	maxCrashes := opts.MaxCrashes
	if maxCrashes <= 0 {
		maxCrashes = 1
	}
	rng := rand.New(rand.NewSource(seed*6364136223846793005 + 1442695040888963407))
	s := Schedule{Seed: seed}
	crashes := 0
	for len(s.Events) < n {
		e := ScheduledFault{
			Kind: kinds[rng.Intn(len(kinds))],
			Rank: rng.Intn(p),
			Iter: 1 + rng.Intn(maxIter),
			Send: 1 + rng.Intn(maxSend),
		}
		switch e.Kind {
		case "crash-iter", "crash-send", "leave":
			// A leave departs the world like a crash, so it draws from the
			// same bounded budget.
			if crashes >= maxCrashes {
				continue
			}
			crashes++
		case "delay":
			e.DelaySec = delay
		}
		s.Events = append(s.Events, e)
	}
	return s
}

// Schedule is an explicit fault plan: every event fires at most once.
type Schedule struct {
	Seed   int64
	Events []ScheduledFault
	// RetransmitSec is the virtual delay standing in for a dropped-then-
	// retransmitted frame (see the package note on drops); 0 means 2e-3.
	RetransmitSec float64
	// Policy and CheckpointEvery annotate the report's faults block with
	// the recovery configuration the schedule ran under (optional).
	Policy          string
	CheckpointEvery int
}

// NewSchedule builds the one-shot injector for a schedule. Build a fresh
// injector per run: consumed-event state is not resettable.
func NewSchedule(s Schedule) *ScheduleInjector {
	if s.RetransmitSec <= 0 {
		s.RetransmitSec = 2e-3
	}
	return &ScheduleInjector{
		sched: s,
		sends: map[int]int{},
		done:  make([]bool, len(s.Events)),
	}
}

// ScheduleFromFaults reconstructs a schedule from a report's faults block,
// so `casvm-train -replay-faults report.json` re-injects the exact
// schedule a failed chaos run recorded.
func ScheduleFromFaults(fi *trace.FaultsInfo) Schedule {
	s := Schedule{Seed: fi.Seed, Policy: fi.Policy, CheckpointEvery: fi.CheckpointEvery}
	for _, e := range fi.Schedule {
		s.Events = append(s.Events, ScheduledFault{
			Kind: e.Kind, Rank: e.Rank, Iter: e.Iter, Send: e.Send, DelaySec: e.DelaySec,
		})
	}
	return s
}

// ScheduleInjector applies a Schedule. It implements core.FaultInjector
// (mpi.TransportHook + CrashCheck) and trace.FaultReporter; it is safe for
// concurrent use by every rank goroutine, and its one-shot consumption
// survives world restarts — which is exactly what lets a respawned rank
// run past the iteration that killed it.
type ScheduleInjector struct {
	sched Schedule

	mu     sync.Mutex
	sends  map[int]int // remote sends attempted per rank (cumulative across restarts)
	done   []bool      // consumed flags, parallel to sched.Events
	events []Event     // realized log, in injection order
}

// Intercept implements mpi.TransportHook.
func (in *ScheduleInjector) Intercept(src, dst, tag int, data []byte) mpi.Verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sends[src]++
	sent := in.sends[src]

	var v mpi.Verdict
	for i, e := range in.sched.Events {
		// Iteration-keyed kinds (crash-iter/leave/join) belong to the
		// CrashCheck/JoinCheck polls, not the wire.
		if in.done[i] || e.Rank != src || sent < e.Send ||
			e.Kind == "crash-iter" || e.Kind == "leave" || e.Kind == "join" {
			continue
		}
		in.done[i] = true
		switch e.Kind {
		case "crash-send":
			in.events = append(in.events, Event{Kind: "crash-send", Src: src, Dst: dst, Tag: tag, Iter: -1})
			return mpi.Verdict{CrashErr: &mpi.CrashError{Rank: src, Iter: -1,
				Site: fmt.Sprintf("send #%d to rank %d", sent, dst)}}
		case "drop":
			// Drop-plus-retransmit: the receiver sees the frame after the
			// modeled resend timeout instead of never (see package note).
			in.events = append(in.events, Event{Kind: "drop", Src: src, Dst: dst, Tag: tag, Iter: -1})
			if in.sched.RetransmitSec > v.DelaySec {
				v.DelaySec = in.sched.RetransmitSec
			}
		case "delay":
			in.events = append(in.events, Event{Kind: "delay", Src: src, Dst: dst, Tag: tag, Iter: -1})
			if e.DelaySec > v.DelaySec {
				v.DelaySec = e.DelaySec
			}
		case "dup":
			in.events = append(in.events, Event{Kind: "dup", Src: src, Dst: dst, Tag: tag, Iter: -1})
			v.Duplicates++
		case "corrupt":
			if len(data) == 0 {
				continue
			}
			in.events = append(in.events, Event{Kind: "corrupt", Src: src, Dst: dst, Tag: tag, Iter: -1})
			mutated := v.Payload
			if mutated == nil {
				mutated = append([]byte(nil), data...)
			}
			mutated[e.Send%len(mutated)] ^= 0xFF // deterministic flip position
			v.Payload = mutated
		}
	}
	return v
}

// CrashCheck implements the iteration-crash poll of core.FaultInjector.
// Unlike Injector.CrashCheck, each crash fires exactly once: after a
// recovery the respawned rank sails past the trigger. A "leave" event is a
// lease expiry: it departs the rank through the same typed error, so the
// recovery policy decides whether the slot is respawned or the world
// shrinks onto the survivors.
func (in *ScheduleInjector) CrashCheck(rank, iter int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, e := range in.sched.Events {
		if in.done[i] || (e.Kind != "crash-iter" && e.Kind != "leave") || e.Rank != rank || iter < e.Iter {
			continue
		}
		in.done[i] = true
		in.events = append(in.events, Event{Kind: e.Kind, Src: rank, Dst: -1, Tag: -1, Iter: iter})
		site := "training loop"
		if e.Kind == "leave" {
			site = "lease expired"
		}
		return &mpi.CrashError{Rank: rank, Iter: iter, Site: site}
	}
	return nil
}

// JoinCheck implements the elastic-join poll of core.ElasticSource: it
// consumes every due "join" event (iter ≥ the event's trigger) and returns
// how many workers want in. The training loops poll it only at epoch
// boundaries — right after a checkpoint deposit — so a grow always resumes
// from a state the supervisor can re-slice.
func (in *ScheduleInjector) JoinCheck(iter int) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for i, e := range in.sched.Events {
		if in.done[i] || e.Kind != "join" || iter < e.Iter {
			continue
		}
		in.done[i] = true
		in.events = append(in.events, Event{Kind: "join", Src: -1, Dst: -1, Tag: -1, Iter: iter})
		n++
	}
	return n
}

// Events returns a copy of the realized-fault log in injection order.
func (in *ScheduleInjector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// FaultsInfo implements trace.FaultReporter: the report's faults block
// with both the configured schedule and the realized events.
func (in *ScheduleInjector) FaultsInfo() *trace.FaultsInfo {
	in.mu.Lock()
	defer in.mu.Unlock()
	fi := &trace.FaultsInfo{
		Seed:            in.sched.Seed,
		Policy:          in.sched.Policy,
		CheckpointEvery: in.sched.CheckpointEvery,
	}
	for _, e := range in.sched.Events {
		fi.Schedule = append(fi.Schedule, trace.FaultEvent{
			Kind: e.Kind, Rank: e.Rank, Iter: e.Iter, Send: e.Send, DelaySec: e.DelaySec,
		})
	}
	for _, e := range in.events {
		fe := trace.FaultEvent{Kind: e.Kind, Rank: e.Src}
		if e.Kind == "crash-iter" {
			fe.Iter = e.Iter
		} else {
			fe.Dst = e.Dst
		}
		fi.Injected = append(fi.Injected, fe)
	}
	return fi
}
