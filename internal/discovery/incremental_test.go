package discovery

import (
	"fmt"
	"sort"
	"testing"

	"redi/internal/rng"
)

// TestMinHashAddEquivalence: growing an empty signature in arbitrary batches
// matches a one-pass NewMinHash over the full set, bit for bit.
func TestMinHashAddEquivalence(t *testing.T) {
	r := rng.New(5)
	for round := 0; round < 30; round++ {
		n := r.Intn(200)
		vals := make([]string, n)
		full := make(map[string]bool, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("v%d-%d", round, i)
			full[vals[i]] = true
		}
		want := NewMinHash(full, 32)
		inc := NewEmptyMinHash(32)
		for lo := 0; lo < n; {
			hi := lo + 1 + r.Intn(40)
			if hi > n {
				hi = n
			}
			inc.Add(vals[lo:hi])
			lo = hi
		}
		if inc.Size != want.Size {
			t.Fatalf("Size = %d, want %d", inc.Size, want.Size)
		}
		for i := range want.Sig {
			if inc.Sig[i] != want.Sig[i] {
				t.Fatalf("round %d: slot %d = %#x, one-pass has %#x", round, i, inc.Sig[i], want.Sig[i])
			}
		}
	}
}

// TestDynTable drives random insert/remove/collect schedules against a
// reference map-of-slices, forcing growth and tombstone traffic with a
// deliberately tiny key space so chains collide and empty out repeatedly.
func TestDynTable(t *testing.T) {
	r := rng.New(9)
	tab := newDynTable()
	ref := map[uint64][]int32{}
	keyOf := func() uint64 { return mix64(uint64(r.Intn(40))) }
	for op := 0; op < 5000; op++ {
		key := keyOf()
		switch r.Intn(3) {
		case 0, 1:
			id := int32(r.Intn(30))
			tab.insert(key, id)
			ref[key] = append(ref[key], id)
		case 2:
			if ids := ref[key]; len(ids) > 0 {
				pick := ids[r.Intn(len(ids))]
				if !tab.remove(key, pick) {
					t.Fatalf("op %d: remove(%#x, %d) missed", op, key, pick)
				}
				for i, id := range ids {
					if id == pick {
						ref[key] = append(ids[:i:i], ids[i+1:]...)
						break
					}
				}
			} else if tab.remove(key, 0) {
				t.Fatalf("op %d: remove from empty chain succeeded", op)
			}
		}
		if op%97 == 0 {
			for k := uint64(0); k < 40; k++ {
				key := mix64(k)
				got := tab.collect(key, nil)
				want := ref[key]
				if len(got) != len(want) {
					t.Fatalf("op %d key %#x: %v vs %v", op, key, got, want)
				}
				for i := range want {
					if int32(got[i]) != want[i] {
						t.Fatalf("op %d key %#x: order %v vs %v", op, key, got, want)
					}
				}
			}
		}
	}
}

// randCorpus builds column domains over a shared value universe so queries
// have real containment structure.
func randCorpus(r *rng.RNG, nCols int) ([]ColumnRef, []map[string]bool) {
	refs := make([]ColumnRef, nCols)
	doms := make([]map[string]bool, nCols)
	for i := range refs {
		refs[i] = ColumnRef{Table: fmt.Sprintf("t%02d", i/4), Column: fmt.Sprintf("c%02d", i%4)}
		n := 1 + r.Intn(120)
		dom := make(map[string]bool, n)
		for j := 0; j < n; j++ {
			dom[fmt.Sprintf("val-%d", r.Intn(300))] = true
		}
		doms[i] = dom
	}
	return refs, doms
}

// sortedVals returns a domain's values in deterministic order for chunked
// feeding.
func sortedVals(dom map[string]bool) []string {
	out := make([]string, 0, len(dom))
	for v := range dom {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// TestIncrementalLSHEquivalence pins the contract: any upsert schedule —
// chunked domains, interleaved columns, shuffled order — yields Query
// results bit-identical to a fresh index built from the final domains, at
// workers 1, 2, and 8.
func TestIncrementalLSHEquivalence(t *testing.T) {
	for _, seed := range []uint64{2, 21} {
		r := rng.New(seed)
		refs, doms := randCorpus(r, 24)

		inc, err := NewIncrementalLSH(32)
		if err != nil {
			t.Fatal(err)
		}
		// Feed each domain in random chunks, columns interleaved: repeatedly
		// pick a column with values left and upsert its next chunk.
		remaining := make([][]string, len(refs))
		for i, dom := range doms {
			remaining[i] = sortedVals(dom)
		}
		for {
			var pending []int
			for i, rest := range remaining {
				if len(rest) > 0 {
					pending = append(pending, i)
				}
			}
			if len(pending) == 0 {
				break
			}
			i := pending[r.Intn(len(pending))]
			k := 1 + r.Intn(len(remaining[i]))
			inc.Upsert(refs[i], remaining[i][:k])
			remaining[i] = remaining[i][k:]
		}

		// Rebuild: one-shot upserts in a different (shuffled) order.
		cold, err := NewIncrementalLSH(32)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range r.Perm(len(refs)) {
			cold.Upsert(refs[i], sortedVals(doms[i]))
		}

		// Signatures must match exactly.
		for i, ref := range refs {
			a := inc.sigs[inc.ids[ref.String()]]
			b := cold.sigs[cold.ids[ref.String()]]
			if a.Size != b.Size {
				t.Fatalf("seed %d: %s Size %d vs %d", seed, ref, a.Size, b.Size)
			}
			for s := range a.Sig {
				if a.Sig[s] != b.Sig[s] {
					t.Fatalf("seed %d: %s slot %d differs", seed, refs[i], s)
				}
			}
		}

		for trial := 0; trial < 8; trial++ {
			q := make(map[string]bool)
			for j := 0; j < 1+r.Intn(60); j++ {
				q[fmt.Sprintf("val-%d", r.Intn(300))] = true
			}
			threshold := 0.1 + 0.8*r.Float64()
			want := cold.Query(q, threshold, nil)
			for _, workers := range []int{1, 2, 8} {
				inc.Workers = workers
				got := inc.Query(q, threshold, nil)
				if len(got) != len(want) {
					t.Fatalf("seed %d trial %d workers %d: %d matches vs %d", seed, trial, workers, len(got), len(want))
				}
				for m := range want {
					if got[m] != want[m] {
						t.Fatalf("seed %d trial %d workers %d: match %d = %+v vs %+v", seed, trial, workers, m, got[m], want[m])
					}
				}
			}
		}
	}
}

// TestIncrementalLSHTierMigration grows one column across several
// power-of-two boundaries and checks it keeps exactly one indexed home.
func TestIncrementalLSHTierMigration(t *testing.T) {
	e, err := NewIncrementalLSH(32)
	if err != nil {
		t.Fatal(err)
	}
	ref := ColumnRef{Table: "t", Column: "c"}
	var all []string
	for step := 0; step < 6; step++ {
		var batch []string
		for j := 0; j < 3+step*5; j++ {
			batch = append(batch, fmt.Sprintf("s%d-%d", step, j))
		}
		all = append(all, batch...)
		e.Upsert(ref, batch)
		total := 0
		for _, tier := range e.tiers {
			if tier != nil {
				total += tier.count
			}
		}
		if total != 1 {
			t.Fatalf("step %d: %d tier entries for one column", step, total)
		}
	}
	// Self-containment: the full domain must retrieve the column.
	q := make(map[string]bool, len(all))
	for _, v := range all {
		q[v] = true
	}
	got := e.Query(q, 0.5, nil)
	if len(got) != 1 || got[0].Ref != ref {
		t.Fatalf("self-query = %+v", got)
	}
}
