package kernel

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"
)

// refLRU replicates the seed's container/list-based row cache so the
// slice-backed rewrite can be checked for bit-identical behaviour: same
// rows, same hit/miss/flop accounting, same eviction order.
type refLRU struct {
	params   Params
	data     interface{ Rows() int }
	capacity int
	rows     map[int]*list.Element
	lru      *list.List
	fill     func(i int, dst []float64) float64

	hits, misses int64
	flops        float64
}

type refEntry struct {
	index int
	row   []float64
}

func newRefLRU(capacity, m int, fill func(int, []float64) float64) *refLRU {
	if capacity < 2 {
		capacity = 2
	}
	return &refLRU{
		capacity: capacity,
		rows:     make(map[int]*list.Element, capacity),
		lru:      list.New(),
		fill:     fill,
	}
}

func (c *refLRU) Row(i, m int) []float64 {
	if el, ok := c.rows[i]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*refEntry).row
	}
	c.misses++
	var e *refEntry
	if c.lru.Len() >= c.capacity {
		el := c.lru.Back()
		e = el.Value.(*refEntry)
		delete(c.rows, e.index)
		c.lru.Remove(el)
	} else {
		e = &refEntry{row: make([]float64, m)}
	}
	e.index = i
	c.flops += c.fill(i, e.row)
	c.rows[i] = c.lru.PushFront(e)
	return e.row
}

// TestLRUMatchesReference drives the new cache and the seed-equivalent
// reference with an identical random access trace and demands identical
// rows, stats and flops at every step, across dense and sparse matrices
// and several capacities.
func TestLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sparse := range []bool{false, true} {
		a := denseMat(rng, 300, 9)
		if sparse {
			a = sparseMat(rng, 300, 30, 0.3)
		}
		p := RBF(0.25)
		for _, cap := range []int{2, 3, 8, 64} {
			c := NewRowCache(p, a, cap)
			ref := newRefLRU(cap, a.Rows(), func(i int, dst []float64) float64 {
				return p.Row(a, i, dst)
			})
			for step := 0; step < 4000; step++ {
				// Zipf-ish trace: mostly a hot working set, occasional cold rows.
				i := rng.Intn(16)
				if rng.Intn(4) == 0 {
					i = rng.Intn(a.Rows())
				}
				got := c.Row(i)
				want := ref.Row(i, a.Rows())
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("cap=%d step=%d row %d: col %d %v != %v",
							cap, step, i, j, got[j], want[j])
					}
				}
			}
			h, m, f := c.Stats()
			if h != ref.hits || m != ref.misses || f != ref.flops {
				t.Fatalf("cap=%d sparse=%v: stats (%d,%d,%g) != ref (%d,%d,%g)",
					cap, sparse, h, m, f, ref.hits, ref.misses, ref.flops)
			}
			if c.Len() > cap {
				t.Fatalf("cap=%d: Len=%d exceeds capacity", cap, c.Len())
			}
		}
	}
}

// TestLRUTwoRowsLive pins the SMO contract: with any capacity ≥ 2, the
// high row fetched first must stay valid (unevicted) while the low row is
// fetched.
func TestLRUTwoRowsLive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := denseMat(rng, 50, 4)
	p := RBF(0.5)
	c := NewRowCache(p, a, 2)
	for pair := 0; pair < 200; pair++ {
		hi, lo := rng.Intn(50), rng.Intn(50)
		rh := c.Row(hi)
		want := make([]float64, 50)
		copy(want, rh)
		c.Row(lo)
		for j := range rh {
			if rh[j] != want[j] {
				t.Fatalf("pair %d (%d,%d): high row clobbered at %d", pair, hi, lo, j)
			}
		}
	}
}

// TestRowCacheAllocFree proves steady-state Row calls allocate nothing —
// the point of the flat-block rewrite.
func TestRowCacheAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := denseMat(rng, 200, 8)
	c := NewRowCache(RBF(0.3), a, 8)
	idx := 0
	allocs := testing.AllocsPerRun(500, func() {
		c.Row(idx % 40) // mix of hits and evicting misses
		idx++
	})
	if allocs != 0 {
		t.Fatalf("Row allocates %v objects/op, want 0", allocs)
	}
}

// TestDiagCacheMatchesEval pins the lazy diagonal cache against direct
// evaluation for a non-Gaussian kernel.
func TestDiagCacheMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := denseMat(rng, 80, 6)
	p := Params{Kind: Polynomial, Coef: 1, Degree: 2}
	c := NewRowCache(p, a, 4)
	for i := 0; i < a.Rows(); i++ {
		if got, want := c.Diag(i), p.Eval(a, i, a, i); got != want {
			t.Fatalf("diag[%d]=%v want %v", i, got, want)
		}
	}
	g := NewRowCache(RBF(0.1), a, 4)
	if g.Diag(3) != 1 {
		t.Fatal("gaussian diag must be exactly 1")
	}
}

// TestKeyedLRUMatchesReference drives a keyed cache — key space (the rows
// of a wider matrix b) larger than the row length (the rows of a), as on a
// Dis-SMO rank — through Lookup and Claim, filling each claimed slot with
// the cross column K(b_key, a), beside the reference LRU. Rows, hit and
// miss counts and the full LRU order must agree after every access, at
// capacity 2 (an eviction on most misses) and at a capacity past the key
// space (clamped; nothing is ever evicted).
func TestKeyedLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sparse := range []bool{false, true} {
		b := denseMat(rng, 90, 9)
		if sparse {
			b = sparseMat(rng, 90, 30, 0.3)
		}
		rows := make([]int, 35)
		for i := range rows {
			rows[i] = 20 + i
		}
		a := b.Subset(rows)
		p := RBF(0.25)
		fill := func(k int, dst []float64) float64 { return p.CrossRow(a, b, k, dst) }
		for _, capacity := range []int{2, b.Rows() + 3} {
			c := NewKeyedRowCache(p, a, b.Rows(), capacity)
			ref := newRefLRU(min(capacity, b.Rows()), a.Rows(), fill)
			var flops float64
			for step := 0; step < 3000; step++ {
				k := rng.Intn(12)
				if rng.Intn(3) == 0 {
					k = rng.Intn(b.Rows())
				}
				got, ok := c.Lookup(k)
				if !ok {
					got = c.Claim(k)
					flops += fill(k, got)
				}
				want := ref.Row(k, a.Rows())
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("cap=%d step=%d key %d: col %d %v != %v",
							capacity, step, k, j, got[j], want[j])
					}
				}
				var order []int
				for s := c.head; s >= 0; s = c.next[s] {
					order = append(order, int(c.rowOf[s]))
				}
				var refOrder []int
				for el := ref.lru.Front(); el != nil; el = el.Next() {
					refOrder = append(refOrder, el.Value.(*refEntry).index)
				}
				if fmt.Sprint(order) != fmt.Sprint(refOrder) {
					t.Fatalf("cap=%d step=%d: LRU order %v, reference %v", capacity, step, order, refOrder)
				}
			}
			h, m, f := c.Stats()
			if h != ref.hits || m != ref.misses || f != 0 || flops != ref.flops {
				t.Fatalf("cap=%d sparse=%v: stats (%d,%d,%g) fills %g != ref (%d,%d) fills %g",
					capacity, sparse, h, m, f, flops, ref.hits, ref.misses, ref.flops)
			}
			if capacity > b.Rows() && (c.Len() != b.Rows() || ref.misses != int64(b.Rows())) {
				t.Fatalf("cap=%d: %d resident after %d misses, want every one of %d keys once",
					capacity, c.Len(), ref.misses, b.Rows())
			}
		}
	}
}
