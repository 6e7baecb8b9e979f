// Package bitmap provides word-packed bitsets with fused
// intersection/popcount kernels and a pooled scratch allocator. It is the
// counting substrate of the coverage hot paths: a pattern's row set is a
// Bitmap, counting matches is an AND + popcount over machine words instead
// of a per-row scan, and the DFS over the pattern lattice refines a
// parent's bitmap into each child with a single kernel call.
//
// The kernels are written as straight-line 4-way-unrolled loops over
// []uint64 so the compiler can keep the words in registers and issue
// hardware popcounts (math/bits.OnesCount64); there is no per-bit work
// anywhere on the hot path. All operations are pure functions of their
// inputs — nothing here reads a clock, a map order, or a global RNG — so
// results are bit-identical across runs and worker counts (the determinism
// contract, see DESIGN.md).
package bitmap

import (
	"math/bits"
	"sync"
)

const wordBits = 64

// Bitmap is a fixed-capacity bitset packed into 64-bit words. Bit i lives
// in word i/64 at position i%64. Operations that combine bitmaps require
// equal lengths; they panic (via bounds checks) otherwise.
type Bitmap []uint64

// WordsFor returns the number of words needed to hold nbits bits.
func WordsFor(nbits int) int {
	return (nbits + wordBits - 1) / wordBits
}

// New returns a zeroed bitmap with capacity for nbits bits.
func New(nbits int) Bitmap {
	return make(Bitmap, WordsFor(nbits))
}

// Set sets bit i.
func (b Bitmap) Set(i int) {
	b[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
func (b Bitmap) Get(i int) bool {
	return b[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (b Bitmap) Count() int {
	n := 0
	i := 0
	for ; i+4 <= len(b); i += 4 {
		n += bits.OnesCount64(b[i]) + bits.OnesCount64(b[i+1]) +
			bits.OnesCount64(b[i+2]) + bits.OnesCount64(b[i+3])
	}
	for ; i < len(b); i++ {
		n += bits.OnesCount64(b[i])
	}
	return n
}

// And stores a ∩ b into dst and returns the popcount of the result in the
// same pass. dst may alias a or b.
//
//redi:hotpath word kernel; the inner loop of every bitmap-backed count and scan
func And(dst, a, b Bitmap) int {
	n := 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		w0 := a[i] & b[i]
		w1 := a[i+1] & b[i+1]
		w2 := a[i+2] & b[i+2]
		w3 := a[i+3] & b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = w0, w1, w2, w3
		n += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(a); i++ {
		w := a[i] & b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// AndNot stores a ∖ b (a AND NOT b) into dst and returns the popcount of
// the result. dst may alias a or b.
//
//redi:hotpath word kernel; the inner loop of every bitmap-backed count and scan
func AndNot(dst, a, b Bitmap) int {
	n := 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		w0 := a[i] &^ b[i]
		w1 := a[i+1] &^ b[i+1]
		w2 := a[i+2] &^ b[i+2]
		w3 := a[i+3] &^ b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = w0, w1, w2, w3
		n += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(a); i++ {
		w := a[i] &^ b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// Or stores a ∪ b into dst and returns the popcount of the result in the
// same pass. dst may alias a or b.
//
//redi:hotpath word kernel; the inner loop of every bitmap-backed count and scan
func Or(dst, a, b Bitmap) int {
	n := 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		w0 := a[i] | b[i]
		w1 := a[i+1] | b[i+1]
		w2 := a[i+2] | b[i+2]
		w3 := a[i+3] | b[i+3]
		dst[i], dst[i+1], dst[i+2], dst[i+3] = w0, w1, w2, w3
		n += bits.OnesCount64(w0) + bits.OnesCount64(w1) +
			bits.OnesCount64(w2) + bits.OnesCount64(w3)
	}
	for ; i < len(a); i++ {
		w := a[i] | b[i]
		dst[i] = w
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for each set bit in ascending order, hopping between set
// bits with trailing-zero counts so sparse bitmaps cost proportional to
// their popcount, not their capacity.
func (b Bitmap) ForEach(fn func(i int)) {
	for wi, w := range b {
		base := wi * wordBits
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// AndCount returns |a ∩ b| without materializing the intersection — the
// kernel for counting a two-constraint pattern straight from its two
// precomputed value bitmaps.
//
//redi:hotpath word kernel; the inner loop of every bitmap-backed count and scan
func AndCount(a, b Bitmap) int {
	n := 0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		n += bits.OnesCount64(a[i]&b[i]) + bits.OnesCount64(a[i+1]&b[i+1]) +
			bits.OnesCount64(a[i+2]&b[i+2]) + bits.OnesCount64(a[i+3]&b[i+3])
	}
	for ; i < len(a); i++ {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

// CountRange returns the number of set bits in [lo, hi). The factorized
// join-space stores each join key's rows as a contiguous bit range, so a
// per-key pattern count is one masked popcount over that range.
func (b Bitmap) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << (uint(lo) % wordBits)
	hiMask := ^uint64(0) >> (wordBits - 1 - (uint(hi-1) % wordBits))
	if loW == hiW {
		return bits.OnesCount64(b[loW] & loMask & hiMask)
	}
	n := bits.OnesCount64(b[loW] & loMask)
	for i := loW + 1; i < hiW; i++ {
		n += bits.OnesCount64(b[i])
	}
	return n + bits.OnesCount64(b[hiW]&hiMask)
}

// Grow returns a bitmap with capacity for nbits bits whose first len(b)
// words are b's. It is the ingest path's extend-in-place primitive: when the
// word count is unchanged the receiver comes back untouched, when spare
// capacity exists the slice is extended over it (new words zeroed — spare
// capacity may hold stale data from a previous realloc), and only when the
// backing array is exhausted does it allocate, with doubling growth so a
// stream of appends costs amortized O(1) words per row instead of a full
// realloc+copy per batch. The layout invariant is preserved: bit i stays in
// word i/64, and every bit at or above the old length reads 0.
//
// Callers that share bitmaps across goroutines must not Grow concurrently
// with readers; the serving layer serializes Grow under its ingest lock.
func (b Bitmap) Grow(nbits int) Bitmap {
	w := WordsFor(nbits)
	if w <= len(b) {
		return b
	}
	if w <= cap(b) {
		nb := b[:w]
		for i := len(b); i < w; i++ {
			nb[i] = 0
		}
		return nb
	}
	c := 2 * len(b)
	if c < w {
		c = w
	}
	nb := make(Bitmap, w, c)
	copy(nb, b)
	return nb
}

// Pool hands out scratch bitmaps of a fixed word length so the lattice DFS
// and ad-hoc counts allocate only on first use per goroutine. A bitmap
// obtained from Get carries arbitrary stale bits: every kernel above fully
// overwrites its destination, so callers never need to clear scratch. Pool
// is safe for concurrent use (sync.Pool underneath) and does not affect
// determinism — pooled memory is write-before-read by construction.
type Pool struct {
	words int
	pool  sync.Pool
	// OnSizeMismatch, when non-nil, observes every Put of a wrong-length
	// bitmap (got and want are word counts). A wrong-sized Put is always a
	// caller bug — the bitmap came from another pool or was re-sliced —
	// and the production policy is to drop it rather than poison the pool,
	// which also silently forfeits the reuse the caller expected. The hook
	// lets tests and debug builds turn that silent drop into a loud
	// failure. Set it before the pool is shared; the field itself is not
	// synchronized.
	OnSizeMismatch func(got, want int)
}

// NewPool returns a pool of bitmaps sized for nbits bits.
func NewPool(nbits int) *Pool {
	p := &Pool{words: WordsFor(nbits)}
	p.pool.New = func() any {
		b := make(Bitmap, p.words)
		return &b
	}
	return p
}

// Get returns a scratch bitmap of the pool's size with undefined contents.
func (p *Pool) Get() Bitmap {
	return *(p.pool.Get().(*Bitmap))
}

// Put returns a bitmap to the pool. Bitmaps of the wrong length are
// dropped rather than poisoning the pool (a later Get must always return
// exactly the pool's size); OnSizeMismatch, when set, observes each drop.
func (p *Pool) Put(b Bitmap) {
	if len(b) != p.words {
		if p.OnSizeMismatch != nil {
			p.OnSizeMismatch(len(b), p.words)
		}
		return
	}
	p.pool.Put(&b)
}
