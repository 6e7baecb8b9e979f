package dataset

import (
	"fmt"
	"sync"
	"testing"
)

// snapRows materializes every cell of d as strings-by-Value for comparison.
func snapRows(d *Dataset) [][]Value {
	out := make([][]Value, d.NumRows())
	for r := range out {
		out[r] = d.Row(r)
	}
	return out
}

func rowsEqual(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if len(a[r]) != len(b[r]) {
			return false
		}
		for c := range a[r] {
			if a[r][c] != b[r][c] {
				return false
			}
		}
	}
	return true
}

// TestSnapshotIsolationAppend is the append-gap regression test: appending
// onto a dataset with an outstanding snapshot — including values that grow
// the shared dictionaries and rows that land in spare slice capacity — must
// leave the snapshot showing pre-append rows exactly.
func TestSnapshotIsolationAppend(t *testing.T) {
	d := testData(t)
	snap := d.Snapshot()
	want := snapRows(snap)
	wantN := d.NumRows()

	extra := New(testSchema())
	extra.MustAppendRow(Cat("7"), Cat("asian"), Num(40), Cat("pos")) // new dict value
	extra.MustAppendRow(Cat("8"), Cat("black"), Num(19), Cat("neg"))
	if err := d.AppendDataset(extra); err != nil {
		t.Fatal(err)
	}
	d.MustAppendRow(Cat("9"), Cat("white"), Num(77), Cat("pos"))

	if snap.NumRows() != wantN {
		t.Fatalf("snapshot rows = %d after append, want %d", snap.NumRows(), wantN)
	}
	if got := snapRows(snap); !rowsEqual(got, want) {
		t.Fatalf("snapshot rows changed after append:\n got %v\nwant %v", got, want)
	}
	if d.NumRows() != wantN+3 {
		t.Fatalf("live rows = %d, want %d", d.NumRows(), wantN+3)
	}
	// The snapshot's dictionary must not have picked up the new value.
	if _, dict := snap.Codes("race"); len(dict) != 2 {
		t.Fatalf("snapshot dict grew: %v", dict)
	}
	if got := d.Value(wantN, "race"); got != Cat("asian") {
		t.Fatalf("live row after append = %v", got)
	}
}

// TestSnapshotIsolationSet pins the copy-on-write mutation path: SetValue on
// a pre-snapshot row materializes private storage, leaving the snapshot's
// bytes untouched — for both categorical (including a dictionary-growing
// write) and numeric columns.
func TestSnapshotIsolationSet(t *testing.T) {
	d := testData(t)
	snap := d.Snapshot()
	want := snapRows(snap)

	if err := d.SetValue(0, "race", Cat("latino")); err != nil { // grows dict
		t.Fatal(err)
	}
	if err := d.SetValue(1, "age", Num(99)); err != nil {
		t.Fatal(err)
	}
	if err := d.SetValue(2, "label", NullValue(Categorical)); err != nil {
		t.Fatal(err)
	}
	if got := snapRows(snap); !rowsEqual(got, want) {
		t.Fatalf("snapshot rows changed after SetValue:\n got %v\nwant %v", got, want)
	}
	if d.Value(0, "race") != Cat("latino") || d.Value(1, "age") != Num(99) {
		t.Fatal("live dataset missing SetValue writes")
	}
}

// TestSnapshotAppendToSnapshotDetaches: a snapshot is a capped view, so
// appending to it must reallocate privately and never write into the live
// dataset's tail.
func TestSnapshotAppendToSnapshotDetaches(t *testing.T) {
	d := testData(t)
	snap := d.Snapshot()
	liveWant := snapRows(d)

	snap.MustAppendRow(Cat("x"), Cat("white"), Num(1), Cat("neg"))
	d.MustAppendRow(Cat("9"), Cat("black"), Num(2), Cat("pos"))

	if got := d.Value(d.NumRows()-1, "id"); got != Cat("9") {
		t.Fatalf("live tail = %v, want Cat(9)", got)
	}
	if got := snapRows(d)[:len(liveWant)]; !rowsEqual(got, liveWant) {
		t.Fatalf("live prefix changed after snapshot append")
	}
	if got := snap.Value(snap.NumRows()-1, "id"); got != Cat("x") {
		t.Fatalf("snapshot tail = %v, want Cat(x)", got)
	}
}

// TestSnapshotAppendMidRead exercises the serving pattern under the race
// detector: concurrent readers iterate a snapshot and compile and count
// predicates on it, in memory and through a partitioned view, while the
// writer keeps appending — fresh ids and a new race value that grow the
// shared dictionaries, and numeric nulls that land in the validity word the
// snapshot shares — and repairing old rows. Readers must observe
// pre-append rows exactly, on every pass.
func TestSnapshotAppendMidRead(t *testing.T) {
	d := testData(t)
	snap := d.Snapshot()
	want := snapRows(snap)
	counts := []struct {
		name string
		p    Predicate
		want int
	}{
		{"race = groupX", Eq("race", "groupX"), 0}, // added to the dictionary after the snapshot
		{"race = white", Eq("race", "white"), 3},
		{"age is null", IsNull("age"), 1},
		{"age is not null", NotNull("age"), 5},
		{"age in [0, 100]", Range("age", 0, 100), 5},
	}

	const readers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Every reader completes a pass after the writer has started and before
	// it finishes, so each pass's reads are unordered with the appends.
	started := make(chan struct{})
	var midway sync.WaitGroup
	midway.Add(readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var once sync.Once
			defer once.Do(midway.Done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := snapRows(snap); !rowsEqual(got, want) {
					t.Error("reader saw mutated snapshot")
					return
				}
				codes, dict := snap.Codes("race")
				if len(codes) != len(want) || len(dict) != 2 {
					t.Errorf("reader saw torn codes: %d rows, dict %v", len(codes), dict)
					return
				}
				pd := snap.Partitions(64)
				for _, c := range counts {
					pp, _ := pd.CompilePredicate(c.p)
					if got := snap.Count(c.p); got != c.want {
						t.Errorf("snapshot count %s = %d, want %d", c.name, got, c.want)
						return
					}
					if got := pp.Count(0, nil); got != c.want {
						t.Errorf("partitioned snapshot count %s = %d, want %d", c.name, got, c.want)
						return
					}
				}
				select {
				case <-started:
					once.Do(midway.Done)
				default:
				}
			}
		}()
	}

	close(started)
	for i := 0; i < 200; i++ {
		if i == 100 {
			midway.Wait()
		}
		age := Num(float64(i))
		if i%2 == 1 {
			age = NullValue(Numeric)
		}
		d.MustAppendRow(Cat(fmt.Sprintf("n%d", i)), Cat("groupX"), age, Cat("pos"))
		// A repair gives the live column private storage, so repairs wait
		// until the appends into the shared validity word are done.
		if i >= 100 && i%10 == 0 {
			if err := d.SetValue(0, "age", Num(float64(i))); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if d.NumRows() != len(want)+200 {
		t.Fatalf("live rows = %d", d.NumRows())
	}
}

func TestCodesRange(t *testing.T) {
	d := testData(t)
	codes, dict := d.CodesRange("race", 2, 5)
	wantCodes := []int32{0, 1, 0} // white, black, white
	for i, c := range codes {
		if c != wantCodes[i] {
			t.Fatalf("codes[%d] = %d, want %d", i, c, wantCodes[i])
		}
	}
	if len(dict) != 2 || dict[0] != "white" || dict[1] != "black" {
		t.Fatalf("dict = %v", dict)
	}
	// Null shows as -1.
	codes, _ = d.CodesRange("race", 5, 6)
	if len(codes) != 1 || codes[0] != -1 {
		t.Fatalf("null code = %v", codes)
	}
}
