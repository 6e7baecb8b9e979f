package bitmap

import (
	"testing"

	"redi/internal/rng"
)

// TestGrowPreservesAndZeroes grows bitmaps through randomized schedules of
// extensions and cross-checks every state against a bitmap rebuilt from the
// reference rows — the rebuild-from-rows oracle.
func TestGrowPreservesAndZeroes(t *testing.T) {
	r := rng.New(11)
	for round := 0; round < 60; round++ {
		n := 1 + r.Intn(200)
		b, ref := randomPair(r, n, 0.4)
		for step := 0; step < 8; step++ {
			grow := 1 + r.Intn(150)
			n += grow
			b = b.Grow(n)
			if len(b) != WordsFor(n) {
				t.Fatalf("round %d: Grow(%d) len = %d words, want %d", round, n, len(b), WordsFor(n))
			}
			// New tail rows must read 0 before being set.
			for i := len(ref); i < n; i++ {
				if b.Get(i) {
					t.Fatalf("round %d: bit %d set after Grow without Set", round, i)
				}
			}
			for i := 0; i < grow; i++ {
				set := r.Float64() < 0.4
				ref = append(ref, set)
				if set {
					b.Set(len(ref) - 1)
				}
			}
			// Rebuild-from-rows oracle: a fresh bitmap set from ref must be
			// word-identical to the grown one.
			fresh := New(n)
			for i, set := range ref {
				if set {
					fresh.Set(i)
				}
			}
			if len(fresh) != len(b) {
				t.Fatalf("round %d: word count %d vs rebuilt %d", round, len(b), len(fresh))
			}
			for w := range fresh {
				if fresh[w] != b[w] {
					t.Fatalf("round %d: word %d = %#x, rebuild has %#x", round, w, b[w], fresh[w])
				}
			}
		}
	}
}

// TestGrowSameWordsIsIdentity pins the cheap path: growing within the
// current word count must return the receiver unchanged.
func TestGrowSameWordsIsIdentity(t *testing.T) {
	b := New(100) // 2 words, covers up to 128 bits
	b.Set(99)
	g := b.Grow(128)
	if &g[0] != &b[0] || len(g) != len(b) {
		t.Fatalf("Grow within word capacity must be identity")
	}
}

// TestGrowReusesSpareCapacity pins the in-place path: after one allocating
// Grow leaves spare capacity, subsequent grows extend over it without
// reallocating — and zero the stale words the spare region may hold.
func TestGrowReusesSpareCapacity(t *testing.T) {
	b := New(64)
	b.Set(0)
	b = b.Grow(128) // realloc: len 2, cap >= 2 (doubling)
	if cap(b) < 2 {
		t.Fatalf("expected doubling capacity, cap = %d", cap(b))
	}
	// Poison spare capacity, then grow into it.
	spare := b[:cap(b)]
	for i := len(b); i < cap(b); i++ {
		spare[i] = ^uint64(0)
	}
	before := &b[0]
	b = b.Grow(cap(b) * 64)
	if &b[0] != before {
		t.Fatalf("Grow within capacity must not reallocate")
	}
	for i := 2; i < len(b); i++ {
		if b[i] != 0 {
			t.Fatalf("word %d not zeroed on in-place Grow: %#x", i, b[i])
		}
	}
	if !b.Get(0) {
		t.Fatalf("prefix lost on Grow")
	}
}
