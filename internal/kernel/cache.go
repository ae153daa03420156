package kernel

import (
	"casvm/internal/la"
	"casvm/internal/trace"
)

// RowCache is an LRU cache of kernel rows K(i, ·) over a fixed training
// matrix. The SMO solver touches two rows per iteration (the high and low
// working-set indices); because violating pairs repeat heavily, a modest
// cache eliminates most kernel-row recomputation — the same optimisation
// LIBSVM and the paper's shared-memory SMO rely on.
//
// The cache is allocation-free after construction: all cached rows live in
// one flat preallocated block, the LRU order is an intrusive doubly-linked
// list over slot numbers backed by two int32 slices, and the row→slot map
// is a direct-indexed slice. A hit is two array reads and four link writes;
// a miss recomputes one row in place — no container/list element boxing, no
// per-miss make, nothing for the garbage collector to trace.
//
// A keyed cache (NewKeyedRowCache) decouples the key space from the row
// length: distributed SMO keys each rank's cached columns K(x_k, X_local)
// by the global index k of a broadcast sample, and fills misses itself
// through Lookup and Claim.
//
// RowCache is not safe for concurrent use; each solver owns one.
type RowCache struct {
	params Params
	data   *la.Matrix

	capacity int // max rows kept
	m        int // row length = data.Rows()
	threads  int // intra-node workers for row fills

	slotOf []int32   // key -> slot, or -1
	rowOf  []int32   // slot -> key, or -1 while unused
	next   []int32   // slot -> next (toward LRU), -1 at tail
	prev   []int32   // slot -> prev (toward MRU), -1 at head
	head   int32     // most recently used slot, -1 when empty
	tail   int32     // least recently used slot, -1 when empty
	used   int       // slots filled so far (grows to capacity, never shrinks)
	block  []float64 // slot s holds its row at block[s*m : (s+1)*m]

	// diag lazily caches the kernel diagonal for non-Gaussian kernels, so
	// per-iteration Diag lookups and the WSS2 scan cost O(1) per sample
	// after the first fill. (Gaussian diagonals are exactly 1.)
	diag []float64

	// Stats.
	hits, misses int64
	flops        float64 // flops charged by Row and PrefetchPair fills

	// rec, when non-nil, records a timeline span per miss (the
	// kernel-row fill is the solver's dominant non-O(m) cost).
	rec *trace.Recorder

	// Preallocated PrefetchPair scratch (at most two missing rows per
	// call), keeping the prefetch path allocation-free like Row.
	prefRows []int
	prefDst  [][]float64
}

// SetThreads lets cache misses compute rows with up to t goroutines
// (kernel.RowParallel). 0 or 1 keeps the serial path.
func (c *RowCache) SetThreads(t int) { c.threads = t }

// SetRecorder attaches a timeline recorder; each cache miss then records a
// "row-fill" span with its flop cost. A nil recorder (the default) keeps
// the hit and miss paths allocation-free no-ops.
func (c *RowCache) SetRecorder(rec *trace.Recorder) { c.rec = rec }

// NewRowCache creates a cache over the given matrix holding at most
// capacity rows (minimum 2, since SMO needs the high and low rows live at
// once). The whole block is allocated up front; untouched pages cost only
// virtual address space.
func NewRowCache(p Params, data *la.Matrix, capacity int) *RowCache {
	return NewKeyedRowCache(p, data, data.Rows(), capacity)
}

// NewKeyedRowCache is NewRowCache with keys in [0, keys) instead of the
// row indices of data; every cached row still has length data.Rows().
// Capacity is clamped to [2, keys]. Row and PrefetchPair compute K(i, ·)
// for key i, so on a cache whose key space differs from data's rows only
// Lookup and Claim apply.
func NewKeyedRowCache(p Params, data *la.Matrix, keys, capacity int) *RowCache {
	if capacity < 2 {
		capacity = 2
	}
	if capacity > keys && keys >= 2 {
		capacity = keys
	}
	m := data.Rows()
	c := &RowCache{
		params:   p,
		data:     data,
		capacity: capacity,
		m:        m,
		slotOf:   make([]int32, keys),
		rowOf:    make([]int32, capacity),
		next:     make([]int32, capacity),
		prev:     make([]int32, capacity),
		head:     -1,
		tail:     -1,
		block:    make([]float64, capacity*m),
		prefRows: make([]int, 0, 2),
		prefDst:  make([][]float64, 0, 2),
	}
	for i := range c.slotOf {
		c.slotOf[i] = -1
	}
	for s := range c.rowOf {
		c.rowOf[s] = -1
	}
	return c
}

// unlink detaches slot s from the LRU list.
func (c *RowCache) unlink(s int32) {
	p, n := c.prev[s], c.next[s]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

// pushFront makes slot s the most recently used.
func (c *RowCache) pushFront(s int32) {
	c.prev[s] = -1
	c.next[s] = c.head
	if c.head >= 0 {
		c.prev[c.head] = s
	}
	c.head = s
	if c.tail < 0 {
		c.tail = s
	}
}

// touch makes the resident slot s the most recently used.
func (c *RowCache) touch(s int32) {
	if c.head != s {
		c.unlink(s)
		c.pushFront(s)
	}
}

// Lookup returns the row cached under key, counting a hit and making it
// the most recently used; ok is false, and nothing is counted, when the
// key is absent. The row is owned by the cache and must not be modified;
// it stays valid until its entry is evicted.
func (c *RowCache) Lookup(key int) (row []float64, ok bool) {
	s := c.slotOf[key]
	if s < 0 {
		return nil, false
	}
	c.hits++
	c.touch(s)
	return c.block[int(s)*c.m : int(s)*c.m+c.m], true
}

// Claim counts a miss for the absent key and assigns it a slot, evicting
// the least recently used entry once the cache is full. It returns the
// slot's storage of length data.Rows(), which the caller must fill before
// the next lookup of key; the caller also accounts for the fill's flops.
// The claimed slot is the most recently used, so with capacity ≥ 2 a
// second claim cannot evict it.
func (c *RowCache) Claim(key int) []float64 {
	c.misses++
	return c.slotFor(key)
}

// Row returns the kernel row K(i, ·) of length data.Rows(), filling it on
// a miss. The returned slice is owned by the cache and must not be
// modified; it stays valid until its entry is evicted (SMO's two live rows
// per iteration are safe for any capacity ≥ 2).
func (c *RowCache) Row(i int) []float64 {
	if row, ok := c.Lookup(i); ok {
		return row
	}
	row := c.Claim(i)
	sp := c.rec.Begin(trace.CatKernel, "row-fill")
	f := c.params.RowParallel(c.data, i, row, c.threads)
	c.rec.EndFlops(sp, f)
	c.flops += f
	return row
}

// slotFor acquires a slot for the uncached key i — reusing the LRU
// victim's slot once the cache is full — updates both index maps, and
// makes the slot most-recently-used immediately, so a second acquisition
// in the same batch cannot evict it (capacity ≥ 2 guarantees a distinct
// tail). It returns the slot's row storage; the caller fills it.
func (c *RowCache) slotFor(i int) []float64 {
	var s int32
	if c.used < c.capacity {
		s = int32(c.used)
		c.used++
	} else {
		// Evict the least recently used entry, reusing its slot in place.
		s = c.tail
		c.slotOf[c.rowOf[s]] = -1
		c.unlink(s)
	}
	c.rowOf[s] = int32(i)
	c.slotOf[i] = s
	c.pushFront(s)
	return c.block[int(s)*c.m : int(s)*c.m+c.m]
}

// PrefetchPair makes rows i and j resident, filling both misses through one
// shared-streaming tile (Params.Tile) so the training matrix is scanned
// once for the pair instead of once per row — SMO touches exactly this pair
// every iteration. Observable cache state afterwards (resident set,
// eviction victims, LRU order, miss count, charged flops) is identical to
// Row(i) followed by Row(j); rows already present are made most-recent but
// not counted as hits, so the later Row() reads account for themselves.
func (c *RowCache) PrefetchPair(i, j int) {
	c.prefRows = c.prefRows[:0]
	c.prefDst = c.prefDst[:0]
	if s := c.slotOf[i]; s >= 0 {
		c.touch(s)
	} else {
		c.prefRows = append(c.prefRows, i)
		c.prefDst = append(c.prefDst, c.Claim(i))
	}
	if j != i {
		if s := c.slotOf[j]; s >= 0 {
			c.touch(s)
		} else {
			c.prefRows = append(c.prefRows, j)
			c.prefDst = append(c.prefDst, c.Claim(j))
		}
	}
	if len(c.prefRows) == 0 {
		return
	}
	sp := c.rec.Begin(trace.CatKernel, "row-fill")
	f := c.params.Tile(c.data, c.prefRows, c.prefDst, c.threads)
	c.rec.EndFlops(sp, f)
	c.flops += f
}

// Diag returns the kernel diagonal K(i,i) without touching the row cache;
// for the Gaussian kernel this is exactly 1. Non-Gaussian diagonals are
// computed once for every sample on first use and then served from the
// cache — the WSS2 second-order scan reads m of them per iteration.
// Diagonal evaluations are deliberately not charged to the flop counter,
// matching the per-call evaluation they replace.
func (c *RowCache) Diag(i int) float64 {
	if c.params.Kind == Gaussian {
		return 1
	}
	if c.diag == nil {
		d := make([]float64, c.m)
		for j := 0; j < c.m; j++ {
			d[j] = c.params.Eval(c.data, j, c.data, j)
		}
		c.diag = d
	}
	return c.diag[i]
}

// Stats returns (hits, misses, flops charged by Row and PrefetchPair
// fills). Rows filled by a Claim caller are not in the flop count.
func (c *RowCache) Stats() (hits, misses int64, flops float64) {
	return c.hits, c.misses, c.flops
}

// ResetFlops zeroes the flop counter and returns the previous value. The
// solver drains this per iteration to charge virtual time.
func (c *RowCache) ResetFlops() float64 {
	f := c.flops
	c.flops = 0
	return f
}

// Len returns the number of rows currently cached.
func (c *RowCache) Len() int { return c.used }
