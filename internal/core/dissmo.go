package core

import (
	"encoding/binary"
	"math"

	"casvm/internal/la"
	"casvm/internal/model"
	"casvm/internal/mpi"
	"casvm/internal/smo"
	"casvm/internal/trace"
)

// trainDisSMO implements Cao et al.'s distributed SMO. The samples are
// block-partitioned over the ranks. Every iteration:
//
//  1. each rank scans its local f for the extreme KKT violators,
//  2. two Allreduce-with-location operations pick the global (high, low)
//     pair (the 14·logP·ts term of eqn 9),
//  3. the owners broadcast the two active samples with their labels and
//     multipliers (the 2n·logP·tw term),
//  4. every rank evaluates the identical clipped pair update and applies
//     it to its local f (the 2mn/P compute term).
//
// Step 4 needs the pair's kernel columns over the rank's block. Each rank
// caches them by the samples' global row index: every rank sees the same
// pair sequence and holds a cache of the same capacity, so the caches hit
// and miss in lockstep, and a column never changes because its owner
// broadcasts the same row each time. The cache saves wall time only; the
// virtual clock still charges both columns every iteration.
//
// The result is bitwise the trajectory of serial SMO on the full set, up to
// the float32 wire rounding of the initial scatter.
func trainDisSMO(c *mpi.Comm, full *la.Matrix, fullY []float64, p Params, out *rankResult) error {
	rec := c.Recorder()
	c.SetPhase("partition")
	spInit := rec.BeginVirt(trace.CatInit, "partition", c.Clock())
	local, err := scatterBlocks(c, full, fullY)
	if err != nil {
		return err
	}
	out.partSize = local.x.Rows()
	out.initSec = c.Clock()
	rec.EndVirt(spInit, c.Clock())

	// The rank's first global row: Dis-SMO checkpoints live in global row
	// space, so deposits and restores address the epoch arrays by offset.
	// Any contiguous block layout (any P) slices the same arrays, which is
	// what lets shrink recovery re-partition without conversion. Global
	// rows also key the pair-column cache.
	m := full.Rows()
	rowStart := blockStart(m, c.Size(), c.Rank())

	c.SetPhase("solve")
	spSolve := rec.BeginVirt(trace.CatTrain, "solve", c.Clock())
	cfg := p.solverConfigAt(c.Rank())
	cfg.CacheRows = p.disSMOCacheRows
	startIter := 0
	if rt := p.rt; rt != nil {
		if epoch, ga, gf, ok := rt.store.consistentDis(); ok {
			cfg.Restore = &smo.Checkpoint{
				Iters: epoch,
				Alpha: ga[rowStart : rowStart+local.x.Rows()],
				F:     gf[rowStart : rowStart+local.x.Rows()],
			}
			startIter = epoch
			if rt.metrics != nil && c.Rank() == 0 {
				rt.metrics.Counter("casvm_restores_total", "solver resumes from checkpoint").Inc()
			}
		}
	}
	solver, err := smo.NewDistributed(local.x, local.y, cfg, m)
	if err != nil {
		return err
	}
	maxIter := p.MaxIter
	if maxIter <= 0 {
		totalM := c.AllreduceSumInt([]int{local.x.Rows()})[0]
		maxIter = 100*totalM + 10000
	}
	tol := p.Tol
	if tol <= 0 {
		tol = 1e-3
	}

	iters := startIter
	lastDep := startIter
	for iters < maxIter {
		// Deposit before the crash poll: a rank killed at iteration k has
		// already contributed epoch k, so the supervisor can resume from a
		// state every survivor passed through.
		if rt := p.rt; rt != nil && iters > 0 && iters%rt.every == 0 && iters != lastDep {
			lastDep = iters
			ck := solver.Snapshot()
			rt.chargeCheckpoint(c, 16*local.x.Rows())
			rt.store.depositDis(iters, rowStart, ck.Alpha, ck.F)
			// Epoch boundary: absorb any pending worker joins. The deposit
			// above already contributed this rank's block, so the supervisor
			// resumes the grown world from a consistent epoch.
			if err := p.joinInterrupt(c.Rank(), iters); err != nil {
				return err
			}
		}
		if p.Faults != nil {
			if err := p.Faults.CrashCheck(c.Rank(), iters); err != nil {
				return err
			}
		}
		bh, ih, bl, il := solver.LocalExtremes()
		c.Charge(solver.TakeFlops())
		high := c.AllreduceMinLoc(bh, ih)
		low := c.AllreduceMaxLoc(bl, il)
		if low.Val-high.Val < 2*tol || high.Index < 0 || low.Index < 0 {
			break
		}
		// Owners broadcast the active samples: row + y + α.
		highP := bcastActive(c, solver, local, int(high.Rank), int(high.Index))
		lowP := bcastActive(c, solver, local, int(low.Rank), int(low.Index))

		// Identical update arithmetic on every rank.
		khh := p.Kernel.Eval(highP.x, 0, highP.x, 0)
		kll := p.Kernel.Eval(lowP.x, 0, lowP.x, 0)
		khl := p.Kernel.Eval(highP.x, 0, lowP.x, 0)
		ch, cl := p.C, p.C
		if p.PosWeight > 0 {
			if highP.y[0] > 0 {
				ch = p.C * p.PosWeight
			}
			if lowP.y[0] > 0 {
				cl = p.C * p.PosWeight
			}
		}
		dah, dal := smo.PairSolveWeighted(ch, cl, highP.y[0], lowP.y[0], high.Val, low.Val,
			highP.alpha[0], lowP.alpha[0], khh, kll, khl)
		if dah == 0 && dal == 0 {
			break // numerically stuck pair; matches the serial guard
		}
		if c.Rank() == int(high.Rank) {
			solver.AddAlpha(int(high.Index), dah)
		}
		if c.Rank() == int(low.Rank) {
			solver.AddAlpha(int(low.Index), dal)
		}
		solver.ApplyExternalPair(blockStart(m, c.Size(), int(high.Rank))+int(high.Index),
			highP.x, 0, highP.y[0], dah,
			blockStart(m, c.Size(), int(low.Rank))+int(low.Index),
			lowP.x, 0, lowP.y[0], dal)
		c.Charge(solver.TakeFlops())
		iters++
	}
	out.iters = iters
	out.trainSec = c.Clock() - out.initSec
	rec.EndVirt(spSolve, c.Clock())
	solver.RecordMetrics()
	c.SetPhase("assemble")

	// Assemble the global model at rank 0: gather (SV rows, y, α, local
	// bHigh/bLow contributions).
	svRows := []int{}
	for i, a := range solver.Alpha() {
		if a > 0 {
			svRows = append(svRows, i)
		}
	}
	payload := packSections(
		encodePart(local.x, local.y, solver.Alpha(), svRows),
		encodeBias(solver),
	)
	gathered := c.Gatherv(0, payload)
	if c.Rank() != 0 {
		return nil
	}
	parts := make([]part, 0, c.Size())
	bHigh, bLow := math.Inf(1), math.Inf(-1)
	for _, g := range gathered {
		secs, err := unpackSections(g)
		if err != nil {
			return err
		}
		q, err := decodePart(secs[0])
		if err != nil {
			return err
		}
		parts = append(parts, q)
		h, l := decodeBias(secs[1])
		if h < bHigh {
			bHigh = h
		}
		if l > bLow {
			bLow = l
		}
	}
	merged := mergeParts(parts)
	bias := 0.0
	switch {
	case !math.IsInf(bHigh, 1) && !math.IsInf(bLow, -1):
		bias = (bHigh + bLow) / 2
	case !math.IsInf(bHigh, 1):
		bias = bHigh
	case !math.IsInf(bLow, -1):
		bias = bLow
	}
	out.local = model.FromSolution(merged.x, merged.y, merged.alpha, bias, p.Kernel)
	out.svs = out.local.NSV()
	return nil
}

// bcastActive broadcasts (sample row, label, α) of the owner's local index
// as a 1-row part.
func bcastActive(c *mpi.Comm, solver *smo.Solver, local part, owner, index int) part {
	var payload []byte
	if c.Rank() == owner {
		payload = encodePart(local.x, local.y, solver.Alpha(), []int{index})
	}
	payload = c.Bcast(owner, payload)
	q, err := decodePart(payload)
	if err != nil {
		panic("core: bcastActive: " + err.Error())
	}
	return q
}

// encodeBias packs the rank's local (bHigh, bLow) thresholds.
func encodeBias(solver *smo.Solver) []byte {
	bh, ih, bl, il := solver.LocalExtremes()
	if ih < 0 {
		bh = math.Inf(1)
	}
	if il < 0 {
		bl = math.Inf(-1)
	}
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, math.Float64bits(bh))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(bl))
	return buf
}

func decodeBias(b []byte) (bHigh, bLow float64) {
	bHigh = math.Float64frombits(binary.LittleEndian.Uint64(b))
	bLow = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return
}
