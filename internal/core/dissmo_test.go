package core

import (
	"fmt"
	"testing"

	"casvm/internal/data"
	"casvm/internal/kernel"
	"casvm/internal/mpi"
	"casvm/internal/trace"
)

// TestDisSMOPairCacheLockstep pins the pair-column cache's two
// invariants on dense and CSR data at P=2 and P=8. Every rank resolves the
// same pair sequence with the same capacity, so every rank must report
// the same hits and misses, two lookups per iteration. And a cached column
// equals a recomputed one, so a capacity of 2, which evicts on most
// misses, must reproduce the default run's fingerprint exactly.
func TestDisSMOPairCacheLockstep(t *testing.T) {
	for _, set := range []struct {
		name  string
		scale float64
	}{{"toy", 1}, {"webspam", 0.05}} {
		d, entry, err := data.Load(set.name, set.scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range []int{2, 8} {
			pr := DefaultParams(MethodDisSMO, np)
			pr.C = entry.C
			pr.Kernel = kernel.RBF(entry.GammaOrDefault())
			name := fmt.Sprintf("%s/P=%d", set.name, np)
			var fps [2]string
			for k, capacity := range []int{0, 2} {
				pr.disSMOCacheRows = capacity
				iters, hits, misses := disSMOCacheStats(t, d, pr)
				for r := range hits {
					if hits[r] != hits[0] || misses[r] != misses[0] {
						t.Fatalf("%s cap=%d: rank %d reports %d hits + %d misses, rank 0 %d + %d",
							name, capacity, r, hits[r], misses[r], hits[0], misses[0])
					}
				}
				if hits[0]+misses[0] != int64(2*iters) {
					t.Fatalf("%s cap=%d: %d hits + %d misses over %d iterations",
						name, capacity, hits[0], misses[0], iters)
				}
				if capacity == 0 && hits[0] == 0 {
					t.Fatalf("%s: default cache never hit in %d iterations", name, iters)
				}
				out, err := Train(d.X, d.Y, pr)
				if err != nil {
					t.Fatal(err)
				}
				hash, err := ModelHash(out.Set)
				if err != nil {
					t.Fatal(err)
				}
				st := out.Stats
				fps[k] = fmt.Sprint(hash, st.Iters, st.TotalFlops, st.CommOps, st.CommBytes, st.TotalSec)
			}
			if fps[0] != fps[1] {
				t.Fatalf("%s: capacity 2 fingerprint %s, default %s", name, fps[1], fps[0])
			}
		}
	}
}

// disSMOCacheStats runs Dis-SMO on a fresh world with a metrics registry
// per rank and returns the iteration count and each rank's cache counters.
func disSMOCacheStats(t *testing.T, d *data.Dataset, p Params) (iters int, hits, misses []int64) {
	t.Helper()
	world := mpi.NewWorld(p.P, p.Machine, p.Seed)
	results := make([]rankResult, p.P)
	regs := make([]*trace.Registry, p.P)
	for r := range regs {
		regs[r] = trace.NewRegistry()
	}
	err := world.Run(func(c *mpi.Comm) error {
		pr := p
		pr.Metrics = regs[c.Rank()]
		return trainDisSMO(c, d.X, d.Y, pr, &results[c.Rank()])
	})
	if err != nil {
		t.Fatal(err)
	}
	iters = results[0].iters
	for r, reg := range regs {
		snap := reg.Snapshot()
		if got := int(snap["smo_iterations_total"]); got != iters {
			t.Fatalf("rank %d published %d iterations, ran %d", r, got, iters)
		}
		hits = append(hits, int64(snap["smo_row_cache_hits_total"]))
		misses = append(misses, int64(snap["smo_row_cache_misses_total"]))
	}
	return iters, hits, misses
}
