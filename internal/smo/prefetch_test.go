package smo

import (
	"fmt"
	"math/rand"
	"testing"

	"casvm/internal/kernel"
	"casvm/internal/la"
	"casvm/internal/trace"
)

// TestTiledPrefetchMatchesUnprefetched proves the pair prefetch (both
// working-set kernel rows filled through one shared-streaming tile before
// PairDeltas) leaves the whole training trajectory untouched: multipliers,
// bias, iteration counts and flop totals are bit-identical with the
// prefetch disabled, across selection modes, storage formats and thread
// counts — the same way TestFusedMatchesUnfused pins the fused pass.
func TestTiledPrefetchMatchesUnprefetched(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	de, y := twoBlobs(rng, 150, 2, 0.9)
	sp := sparseCopy(de)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"first-order", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5)}},
		{"wss2", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), SecondOrder: true}},
		{"shrinking", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), Shrinking: true}},
		{"small-cache", Config{C: 1, Tol: 1e-3, Kernel: kernel.RBF(0.5), CacheRows: 4}},
		{"linear", Config{C: 1, Tol: 1e-3, Kernel: kernel.Params{Kind: kernel.Linear}, MaxIter: 500}},
	}
	for _, tc := range cases {
		for _, mat := range []struct {
			name string
			x    *la.Matrix
		}{{"dense", de}, {"sparse", sp}} {
			for _, threads := range []int{1, 4} {
				on := tc.cfg
				on.Threads = threads
				off := on
				off.disableTilePrefetch = true
				want, err := Solve(mat.x, y, off, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Solve(mat.x, y, on, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, tc.name+"/"+mat.name, got, want)
			}
		}
	}
}

// TestApplyExternalPairMatchesSequential pins the cached distributed pair
// update against the uncached arithmetic: each pair column computed by
// CrossRow and applied high then low. As on a Dis-SMO rank, the local
// block is a slice of the key space. The pair sequence covers every cache
// case — both columns missing (one fused CrossRowPair fill), a full hit,
// each half of a partial hit, a repeated key — and capacity 2 adds
// evictions. f must match bit for bit, every call must charge the
// uncached cost, and the row-fill spans must carry only the flops actually
// computed, for both storage kinds and both kernel families.
func TestApplyExternalPairMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	de, y := twoBlobs(rng, 80, 2, 0.8)
	sp := sparseCopy(de)
	rows := make([]int, 60)
	for i := range rows {
		rows[i] = 40 + i
	}
	ly := y[40:100]
	pairs := [][2]int{{3, 117}, {3, 117}, {3, 9}, {140, 117}, {50, 50}, {9, 50}, {117, 3}, {70, 140}}
	for _, mat := range []struct {
		name string
		x    *la.Matrix
	}{{"dense", de}, {"sparse", sp}} {
		x := mat.x.Subset(rows)
		for _, p := range []kernel.Params{kernel.RBF(0.4), {Kind: kernel.Linear}} {
			for _, capacity := range []int{2, 64} {
				name := fmt.Sprintf("%s/%v/cap%d", mat.name, p.Kind, capacity)
				tl := trace.NewTimeline(1)
				cfg := Config{C: 1, Tol: 1e-3, Kernel: p, CacheRows: capacity, Trace: tl.Rank(0)}
				s, err := NewDistributed(x, ly, cfg, mat.x.Rows())
				if err != nil {
					t.Fatal(err)
				}
				want := make([]float64, len(ly))
				for i := range want {
					want[i] = -ly[i]
				}
				buf := make([]float64, x.Rows())
				// A reference LRU of keys, most recent first, predicts which
				// columns the cache must compute.
				var lru []int
				resident := func(k int) bool {
					for i, v := range lru {
						if v == k {
							copy(lru[1:i+1], lru[:i])
							lru[0] = k
							return true
						}
					}
					lru = append([]int{k}, lru...)
					if len(lru) > capacity {
						lru = lru[:capacity]
					}
					return false
				}
				var wantExec float64
				var wantMisses, wantFills int64
				cases := map[[2]bool]int{}
				for n, pr := range pairs {
					var charge float64
					hit := [2]bool{}
					for side, k := range pr {
						d := 0.25 * float64(n+side+1)
						f := p.CrossRow(x, mat.x, k, buf)
						la.Axpy(d*y[k], buf, want)
						charge += f + float64(2*x.Rows())
						if hit[side] = resident(k); !hit[side] {
							wantExec += f
							wantMisses++
						}
					}
					if !hit[0] || !hit[1] {
						wantFills++
					}
					cases[hit]++
					s.ApplyExternalPair(pr[0], mat.x, pr[0], y[pr[0]], 0.25*float64(n+1),
						pr[1], mat.x, pr[1], y[pr[1]], 0.25*float64(n+2))
					if got := s.TakeFlops(); got != charge {
						t.Fatalf("%s pair %d: charged %v flops, want the uncached %v", name, n, got, charge)
					}
					for i := range want {
						if s.f[i] != want[i] {
							t.Fatalf("%s pair %d: f[%d] %v vs %v", name, n, i, s.f[i], want[i])
						}
					}
				}
				if capacity == 64 && len(cases) != 4 {
					t.Fatalf("%s: hit patterns %v, want all four", name, cases)
				}
				hits, misses, _ := s.cache.Stats()
				if s.Iters() != len(pairs) || misses != wantMisses || hits+misses != int64(2*len(pairs)) {
					t.Fatalf("%s: iters %d, hits %d, misses %d (want %d)", name, s.Iters(), hits, misses, wantMisses)
				}
				var exec float64
				var fills int64
				for _, e := range tl.Events() {
					if e.Cat == trace.CatKernel && e.Name == "row-fill" {
						exec += e.Flops
						fills++
					}
				}
				if exec != wantExec || fills != wantFills {
					t.Fatalf("%s: %d row-fill spans with %v flops, want %d with %v",
						name, fills, exec, wantFills, wantExec)
				}
			}
		}
	}
}
