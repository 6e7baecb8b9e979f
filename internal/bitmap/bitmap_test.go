package bitmap

import (
	"testing"

	"redi/internal/rng"
)

// refSet is the boolean-slice reference implementation the kernels are
// cross-checked against.
type refSet []bool

func randomPair(r *rng.RNG, nbits int, density float64) (Bitmap, refSet) {
	b := New(nbits)
	ref := make(refSet, nbits)
	for i := 0; i < nbits; i++ {
		if r.Float64() < density {
			b.Set(i)
			ref[i] = true
		}
	}
	return b, ref
}

func refCount(ref refSet, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if ref[i] {
			n++
		}
	}
	return n
}

func TestSetGetCount(t *testing.T) {
	r := rng.New(1)
	for _, nbits := range []int{1, 7, 63, 64, 65, 128, 1000} {
		b, ref := randomPair(r, nbits, 0.3)
		for i := 0; i < nbits; i++ {
			if b.Get(i) != bool(ref[i]) {
				t.Fatalf("nbits=%d: bit %d = %v, want %v", nbits, i, b.Get(i), ref[i])
			}
		}
		if got, want := b.Count(), refCount(ref, 0, nbits); got != want {
			t.Fatalf("nbits=%d: Count = %d, want %d", nbits, got, want)
		}
	}
}

func TestKernelsMatchReference(t *testing.T) {
	r := rng.New(2)
	for round := 0; round < 50; round++ {
		nbits := 1 + r.Intn(500)
		a, ra := randomPair(r, nbits, 0.4)
		b, rb := randomPair(r, nbits, 0.4)

		wantAnd, wantAndNot := 0, 0
		for i := 0; i < nbits; i++ {
			if ra[i] && rb[i] {
				wantAnd++
			}
			if ra[i] && !rb[i] {
				wantAndNot++
			}
		}
		if got := AndCount(a, b); got != wantAnd {
			t.Fatalf("round %d: AndCount = %d, want %d", round, got, wantAnd)
		}
		dst := New(nbits)
		if got := And(dst, a, b); got != wantAnd {
			t.Fatalf("round %d: And popcount = %d, want %d", round, got, wantAnd)
		}
		if got := dst.Count(); got != wantAnd {
			t.Fatalf("round %d: And result count = %d, want %d", round, got, wantAnd)
		}
		for i := 0; i < nbits; i++ {
			if dst.Get(i) != (ra[i] && rb[i]) {
				t.Fatalf("round %d: And bit %d wrong", round, i)
			}
		}
		if got := AndNot(dst, a, b); got != wantAndNot {
			t.Fatalf("round %d: AndNot popcount = %d, want %d", round, got, wantAndNot)
		}
		for i := 0; i < nbits; i++ {
			if dst.Get(i) != (ra[i] && !rb[i]) {
				t.Fatalf("round %d: AndNot bit %d wrong", round, i)
			}
		}
	}
}

func TestOrMatchesReference(t *testing.T) {
	r := rng.New(7)
	for round := 0; round < 50; round++ {
		nbits := 1 + r.Intn(500)
		a, ra := randomPair(r, nbits, 0.4)
		b, rb := randomPair(r, nbits, 0.4)
		want := 0
		for i := 0; i < nbits; i++ {
			if ra[i] || rb[i] {
				want++
			}
		}
		dst := New(nbits)
		if got := Or(dst, a, b); got != want {
			t.Fatalf("round %d: Or popcount = %d, want %d", round, got, want)
		}
		for i := 0; i < nbits; i++ {
			if dst.Get(i) != (ra[i] || rb[i]) {
				t.Fatalf("round %d: Or bit %d wrong", round, i)
			}
		}
		// Aliased form: dst == a.
		if got := Or(a, a, b); got != want {
			t.Fatalf("round %d: aliased Or = %d, want %d", round, got, want)
		}
		if a.Count() != want {
			t.Fatalf("round %d: aliased Or result count = %d, want %d", round, a.Count(), want)
		}
	}
	// Or fully overwrites a dirty destination.
	dirty := New(130)
	for i := range dirty {
		dirty[i] = ^uint64(0)
	}
	a, b := New(130), New(130)
	a.Set(3)
	b.Set(127)
	if got := Or(dirty, a, b); got != 2 || dirty.Count() != 2 {
		t.Fatalf("Or on dirty dst = %d bits (count %d), want 2", got, dirty.Count())
	}
}

func TestForEach(t *testing.T) {
	r := rng.New(8)
	for _, nbits := range []int{0, 1, 63, 64, 65, 300} {
		b, ref := randomPair(r, nbits, 0.3)
		var got []int
		b.ForEach(func(i int) { got = append(got, i) })
		var want []int
		for i := 0; i < nbits; i++ {
			if ref[i] {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("nbits=%d: ForEach visited %d bits, want %d", nbits, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("nbits=%d: ForEach order wrong at %d: %d vs %d", nbits, i, got[i], want[i])
			}
		}
	}
}

func TestAndAliasesDst(t *testing.T) {
	r := rng.New(3)
	a, ra := randomPair(r, 200, 0.5)
	b, rb := randomPair(r, 200, 0.5)
	want := 0
	for i := range ra {
		if ra[i] && rb[i] {
			want++
		}
	}
	if got := And(a, a, b); got != want {
		t.Fatalf("aliased And = %d, want %d", got, want)
	}
	if got := a.Count(); got != want {
		t.Fatalf("aliased And result = %d, want %d", got, want)
	}
}

func TestCountRange(t *testing.T) {
	r := rng.New(4)
	for round := 0; round < 50; round++ {
		nbits := 1 + r.Intn(400)
		b, ref := randomPair(r, nbits, 0.3)
		for trial := 0; trial < 20; trial++ {
			lo := r.Intn(nbits + 1)
			hi := r.Intn(nbits + 1)
			if lo > hi {
				lo, hi = hi, lo
			}
			if got, want := b.CountRange(lo, hi), refCount(ref, lo, hi); got != want {
				t.Fatalf("round %d: CountRange(%d, %d) = %d, want %d (nbits=%d)",
					round, lo, hi, got, want, nbits)
			}
		}
		if got := b.CountRange(0, nbits); got != b.Count() {
			t.Fatalf("full CountRange %d != Count %d", got, b.Count())
		}
	}
}

func TestWordsFor(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for nbits, want := range cases {
		if got := WordsFor(nbits); got != want {
			t.Fatalf("WordsFor(%d) = %d, want %d", nbits, got, want)
		}
	}
}

func TestPoolRecyclesAndIsOverwriteSafe(t *testing.T) {
	p := NewPool(130)
	b := p.Get()
	if len(b) != WordsFor(130) {
		t.Fatalf("pool bitmap has %d words, want %d", len(b), WordsFor(130))
	}
	// Dirty the scratch, return it, and verify a fused kernel fully
	// overwrites whatever comes back out.
	for i := range b {
		b[i] = ^uint64(0)
	}
	p.Put(b)
	a, bb := New(130), New(130)
	a.Set(5)
	bb.Set(5)
	bb.Set(77)
	dst := p.Get()
	if got := And(dst, a, bb); got != 1 {
		t.Fatalf("And on recycled scratch = %d, want 1", got)
	}
	if dst.Count() != 1 || !dst.Get(5) {
		t.Fatal("recycled scratch not fully overwritten")
	}
	// Wrong-size bitmaps are dropped, not pooled.
	p.Put(New(10))
}

// TestPoolPutWrongSizeContract pins Put's wrong-size policy: the bitmap is
// dropped (never handed back out by a later Get), and the OnSizeMismatch
// debug hook observes the drop with the offending and expected word counts.
func TestPoolPutWrongSizeContract(t *testing.T) {
	p := NewPool(130)
	var gotCalls [][2]int
	p.OnSizeMismatch = func(got, want int) { gotCalls = append(gotCalls, [2]int{got, want}) }

	p.Put(New(10))   // too short
	p.Put(New(4096)) // too long
	p.Put(nil)       // degenerate
	if want := [][2]int{
		{WordsFor(10), WordsFor(130)},
		{WordsFor(4096), WordsFor(130)},
		{0, WordsFor(130)},
	}; len(gotCalls) != len(want) {
		t.Fatalf("OnSizeMismatch fired %d times, want %d", len(gotCalls), len(want))
	} else {
		for i := range want {
			if gotCalls[i] != want[i] {
				t.Fatalf("OnSizeMismatch call %d = %v, want %v", i, gotCalls[i], want[i])
			}
		}
	}

	// Correct-size Puts never fire the hook, and every Get after the
	// wrong-size Puts still returns exactly the pool's size.
	n := len(gotCalls)
	for i := 0; i < 8; i++ {
		b := p.Get()
		if len(b) != WordsFor(130) {
			t.Fatalf("Get returned %d words after wrong-size Puts, want %d", len(b), WordsFor(130))
		}
		p.Put(b)
	}
	if len(gotCalls) != n {
		t.Fatalf("OnSizeMismatch fired on correct-size Puts")
	}
}
