package dataset

import (
	"fmt"
	"sort"

	"redi/internal/bitmap"
	"redi/internal/obs"
	"redi/internal/parallel"
	"redi/internal/trace"
)

// PartitionSource is the storage contract behind a Partitioned view: rows
// split into fixed-size partitions of columnar data, with categorical codes
// drawn from one merged global dictionary per column. internal/colfile's
// File implements it over mapped pages; memSource implements it over an
// in-memory Dataset, making the in-memory table one backend among two.
//
// Layout invariants every source must honor:
//   - PartRows is a positive multiple of 64, so partition p covers global
//     rows [p*PartRows, ...) whose word range in any global bitmap is
//     disjoint from every other partition's;
//   - every partition has PartRows rows except possibly the last;
//   - categorical codes are below the watermark Dict(col) reports (-1
//     marks null);
//   - numeric validity words are bit-packed (bit set = non-null), cells
//     under a cleared bit hold 0, and trailing bits past the partition's
//     row count are zero.
//
// Returned slices are read-only views; accessors must be safe for
// concurrent use (partition-parallel kernels fan out over them).
type PartitionSource interface {
	Schema() *Schema
	NumRows() int
	PartRows() int
	NumPartitions() int
	PartitionRows(p int) int
	// Dict returns the shared global dictionary of a categorical column and
	// the source's watermark in it: every partition's codes are below the
	// watermark, and values at or beyond it are not the source's. Numeric
	// columns return (nil, 0).
	Dict(col int) (*Dict, int)
	PartitionCatCodes(p, col int) []int32
	PartitionNumValues(p, col int) (vals []float64, validity []uint64)
	// PartitionPresentCodes returns the sorted global codes present in the
	// partition, or nil when unknown (pruning is then skipped).
	PartitionPresentCodes(p, col int) []int32
}

// Partitioned is a dataset view that executes partition-at-a-time. It is
// the one input of grouping, coverage spaces, audits and tailoring; an
// in-memory Dataset enters through Partitions. Hot paths fan out over
// partitions with internal/parallel and merge per-shard results in shard
// order, so results are bit-identical at any worker count and partition
// size. Methods taking a workers argument follow the parallel package's
// convention: 0 = serial, parallel.Auto = one worker per CPU.
type Partitioned struct {
	src PartitionSource
	// Obs receives the partition counters (dataset.partitions_scanned,
	// dataset.partitions_pruned); nil falls back to the process-wide
	// registry per obs.Active.
	Obs *obs.Registry
}

// NewPartitioned wraps a source after checking its geometry invariants.
func NewPartitioned(src PartitionSource) *Partitioned {
	pr := src.PartRows()
	if pr <= 0 || pr%64 != 0 {
		panic(fmt.Sprintf("dataset: partition size %d must be a positive multiple of 64", pr))
	}
	rows := 0
	for p := 0; p < src.NumPartitions(); p++ {
		got := src.PartitionRows(p)
		want := pr
		if left := src.NumRows() - rows; left < want {
			want = left
		}
		if got != want {
			panic(fmt.Sprintf("dataset: partition %d has %d rows, want %d", p, got, want))
		}
		rows += got
	}
	if rows != src.NumRows() {
		panic(fmt.Sprintf("dataset: partitions cover %d rows, source declares %d", rows, src.NumRows()))
	}
	return &Partitioned{src: src}
}

// Source returns the underlying storage backend.
func (pd *Partitioned) Source() PartitionSource { return pd.src }

// Schema returns the dataset's schema.
func (pd *Partitioned) Schema() *Schema { return pd.src.Schema() }

// NumRows returns the total row count.
func (pd *Partitioned) NumRows() int { return pd.src.NumRows() }

// PartRows returns the partition size in rows.
func (pd *Partitioned) PartRows() int { return pd.src.PartRows() }

// NumPartitions returns the partition count.
func (pd *Partitioned) NumPartitions() int { return pd.src.NumPartitions() }

// PartitionRows returns partition p's row count.
func (pd *Partitioned) PartitionRows(p int) int { return pd.src.PartitionRows(p) }

// Dict returns the merged global dictionary for a categorical attribute.
// The slice is shared — callers must not mutate it.
func (pd *Partitioned) Dict(attr string) []string {
	col := pd.src.Schema().MustIndex(attr)
	if pd.src.Schema().Attr(col).Kind != Categorical {
		panic(fmt.Sprintf("dataset: attribute %q is not categorical", attr))
	}
	// May be empty (nil): a zero-row or all-null column has no dictionary.
	return pd.dict(col)
}

// dict returns categorical column col's dictionary values below the
// source's watermark, capped there so a caller's append copies them.
func (pd *Partitioned) dict(col int) []string {
	d, n := pd.src.Dict(col)
	return d.Values()[:n:n]
}

// lookup returns the code of s in categorical column col's dictionary when
// s lies below the source's watermark.
func (pd *Partitioned) lookup(col int, s string) (int32, bool) {
	d, n := pd.src.Dict(col)
	code, ok := d.lookup(s)
	return code, ok && int(code) < n
}

func (pd *Partitioned) counters() (scanned, pruned *obs.Counter) {
	reg := obs.Active(pd.Obs)
	return reg.Counter("dataset.partitions_scanned"), reg.Counter("dataset.partitions_pruned")
}

// Value returns the cell at global row r of the named attribute. This is a
// per-row convenience for edges and tests — hot paths use the partition
// accessors instead.
func (pd *Partitioned) Value(r int, attr string) Value {
	col := pd.src.Schema().MustIndex(attr)
	p, i := r/pd.src.PartRows(), r%pd.src.PartRows()
	if pd.src.Schema().Attr(col).Kind == Categorical {
		code := pd.src.PartitionCatCodes(p, col)[i]
		if code < 0 {
			return NullValue(Categorical)
		}
		return Cat(pd.dict(col)[code])
	}
	vals, validity := pd.src.PartitionNumValues(p, col)
	if validity[i/64]&(1<<(uint(i)%64)) == 0 {
		return NullValue(Numeric)
	}
	return Num(vals[i])
}

// AppendRowsTo appends the given global rows, in order, to an in-memory
// dataset with an equal schema. Each touched partition's column views are
// fetched once and cached for the call, so gathering k rows costs O(k)
// plus one page fetch per distinct partition.
func (pd *Partitioned) AppendRowsTo(out *Dataset, rows []int) error {
	if !out.Schema().Equal(pd.Schema()) {
		return fmt.Errorf("dataset: AppendRowsTo schema mismatch: %v vs %v", out.Schema(), pd.Schema())
	}
	schema := pd.Schema()
	type partCache struct {
		cat   [][]int32
		vals  [][]float64
		valid [][]uint64
	}
	cache := make(map[int]*partCache)
	dicts := make([][]string, schema.Len())
	for col := range dicts {
		if schema.Attr(col).Kind == Categorical {
			dicts[col] = pd.dict(col)
		}
	}
	fetch := func(p int) *partCache {
		if c, ok := cache[p]; ok {
			return c
		}
		c := &partCache{
			cat:   make([][]int32, schema.Len()),
			vals:  make([][]float64, schema.Len()),
			valid: make([][]uint64, schema.Len()),
		}
		for col := 0; col < schema.Len(); col++ {
			if schema.Attr(col).Kind == Categorical {
				c.cat[col] = pd.src.PartitionCatCodes(p, col)
			} else {
				c.vals[col], c.valid[col] = pd.src.PartitionNumValues(p, col)
			}
		}
		cache[p] = c
		return c
	}
	row := make([]Value, schema.Len())
	for _, r := range rows {
		if r < 0 || r >= pd.NumRows() {
			return fmt.Errorf("dataset: AppendRowsTo row %d out of range [0, %d)", r, pd.NumRows())
		}
		p, i := r/pd.src.PartRows(), r%pd.src.PartRows()
		c := fetch(p)
		for col := 0; col < schema.Len(); col++ {
			if schema.Attr(col).Kind == Categorical {
				code := c.cat[col][i]
				if code < 0 {
					row[col] = NullValue(Categorical)
				} else {
					row[col] = Cat(dicts[col][code])
				}
			} else {
				if c.valid[col][i/64]&(1<<(uint(i)%64)) == 0 {
					row[col] = NullValue(Numeric)
				} else {
					row[col] = Num(c.vals[col][i])
				}
			}
		}
		if err := out.AppendRow(row...); err != nil {
			return err
		}
	}
	return nil
}

// Partitions returns a partitioned view of an in-memory dataset: the same
// rows sliced into partRows-sized partitions (0 means DefaultMemPartRows).
// The view aliases the dataset's column storage, dictionaries and validity
// words included, so it costs O(columns + partitions) to build — do not
// mutate the dataset while the view is in use.
func (d *Dataset) Partitions(partRows int) *Partitioned {
	if partRows == 0 {
		partRows = DefaultMemPartRows
	}
	if partRows <= 0 || partRows%64 != 0 {
		panic(fmt.Sprintf("dataset: partition size %d must be a positive multiple of 64", partRows))
	}
	return NewPartitioned(&memSource{d: d, partRows: partRows})
}

// DefaultMemPartRows is the default partition size for in-memory views.
const DefaultMemPartRows = 1 << 16

// memSource adapts an in-memory Dataset to PartitionSource by slicing its
// column storage. Partition boundaries are multiples of 64 rows, so each
// partition's validity is a window of whole words of its column's own
// validity words.
type memSource struct {
	d        *Dataset
	partRows int
}

func (ms *memSource) Schema() *Schema { return ms.d.schema }
func (ms *memSource) NumRows() int    { return ms.d.n }
func (ms *memSource) PartRows() int   { return ms.partRows }

func (ms *memSource) NumPartitions() int {
	return (ms.d.n + ms.partRows - 1) / ms.partRows
}

func (ms *memSource) PartitionRows(p int) int {
	if rows := ms.d.n - p*ms.partRows; rows < ms.partRows {
		return rows
	}
	return ms.partRows
}

func (ms *memSource) rowRange(p int) (lo, hi int) {
	lo = p * ms.partRows
	hi = lo + ms.PartitionRows(p)
	return lo, hi
}

func (ms *memSource) Dict(col int) (*Dict, int) {
	c, ok := ms.d.cols[col].(*catColumn)
	if !ok {
		return nil, 0
	}
	return c.dict, len(c.vals)
}

func (ms *memSource) PartitionCatCodes(p, col int) []int32 {
	lo, hi := ms.rowRange(p)
	return ms.d.cols[col].(*catColumn).codes[lo:hi]
}

func (ms *memSource) PartitionNumValues(p, col int) ([]float64, []uint64) {
	lo, hi := ms.rowRange(p)
	c := ms.d.cols[col].(*numColumn)
	return c.vals[lo:hi], c.valid[lo/64 : lo/64+bitmap.WordsFor(hi-lo)]
}

// PartitionPresentCodes is unknown for in-memory views: nil disables
// pruning, which only affects speed, never results.
func (ms *memSource) PartitionPresentCodes(p, col int) []int32 { return nil }

// GroupBy indexes the view's rows by categorical attributes, partition-
// parallel. Rows with a null in any grouping attribute are assigned to no
// group (ByRow = -1). Gids follow the canonical order: ascending rendered-key
// order. It panics if an attribute is unknown or not categorical.
//
// Phase 1 shards the partitions: each shard scans its partitions' code
// pages, assigning shard-local provisional gids (dense mixed-radix table
// when the dictionary product is small, byte-keyed map otherwise) and
// writing them into its disjoint ByRow range. The serial merge unifies the
// shards' distinct tuples in shard order, sorts them into canonical
// rendered-key order, and builds one local→final remap per shard. Phase 2
// rewrites each shard's ByRow range through its remap. Every merge walks
// shards in shard order, so the result is independent of the worker count
// and the partition size. Under a non-nil span it records a
// "dataset.groupby" child with the rows grouped and the gids produced.
func (pd *Partitioned) GroupBy(workers int, sp *trace.Span, attrs ...string) *Groups {
	ev := sp.Child("dataset.groupby")
	A := len(attrs)
	schema := pd.Schema()
	cols := make([]int, A)
	dims := make([]int, A)
	g := &Groups{
		Attrs: append([]string(nil), attrs...),
		ByRow: make([]int32, pd.NumRows()),
		n:     pd.NumRows(),
		dicts: make([][]string, A),
	}
	product := 1 // -1 once the dense budget is exceeded
	for i, a := range attrs {
		ci := schema.MustIndex(a)
		if schema.Attr(ci).Kind != Categorical {
			panic(fmt.Sprintf("dataset: GroupBy attribute %q is not categorical", a))
		}
		dict := pd.dict(ci) // may be empty: all-null or zero-row column
		cols[i] = ci
		g.dicts[i] = dict
		dims[i] = len(dict)
		if product > 0 && dims[i] != 0 && product > denseGroupLimit/dims[i] {
			product = -1
			continue
		}
		if product >= 0 {
			product *= dims[i]
		}
	}

	cScanned, _ := pd.counters()
	P := pd.NumPartitions()
	partRows := pd.PartRows()
	type gbShard struct {
		tuples []int32 // local-gid-major code tuples
		counts []int
		lo, hi int // global row range covered
	}
	shards := parallel.MapChunks(workers, P, func(_, plo, phi int) gbShard {
		sh := gbShard{lo: plo * partRows}
		codes := make([][]int32, A)
		var table []int32
		var index map[string]int32
		if product >= 0 {
			table = make([]int32, product)
			for i := range table {
				table[i] = -1
			}
		} else {
			index = make(map[string]int32)
		}
		key := make([]byte, 4*A)
		for p := plo; p < phi; p++ {
			cScanned.Inc()
			base := p * partRows
			for a, ci := range cols {
				codes[a] = pd.src.PartitionCatCodes(p, ci)
			}
			rows := pd.src.PartitionRows(p)
			sh.hi = base + rows
			for r := 0; r < rows; r++ {
				var gid int32
				if product >= 0 {
					idx := 0
					null := false
					for a := range codes {
						code := codes[a][r]
						if code < 0 {
							null = true
							break
						}
						idx = idx*dims[a] + int(code)
					}
					if null {
						g.ByRow[base+r] = -1
						continue
					}
					gid = table[idx]
					if gid < 0 {
						gid = int32(len(sh.counts))
						table[idx] = gid
						for a := range codes {
							sh.tuples = append(sh.tuples, codes[a][r])
						}
						sh.counts = append(sh.counts, 0)
					}
				} else {
					null := false
					for a := range codes {
						code := codes[a][r]
						if code < 0 {
							null = true
							break
						}
						key[4*a] = byte(code)
						key[4*a+1] = byte(code >> 8)
						key[4*a+2] = byte(code >> 16)
						key[4*a+3] = byte(code >> 24)
					}
					if null {
						g.ByRow[base+r] = -1
						continue
					}
					var ok bool
					gid, ok = index[string(key)]
					if !ok {
						gid = int32(len(sh.counts))
						index[string(key)] = gid
						for a := range codes {
							sh.tuples = append(sh.tuples, codes[a][r])
						}
						sh.counts = append(sh.counts, 0)
					}
				}
				g.ByRow[base+r] = gid
				sh.counts[gid]++
			}
		}
		return sh
	})

	// Serial merge: unify shard-local tuples in shard order into global
	// provisional gids, then remap those into canonical sorted-key order. A
	// single shard's local gids already are the provisional ones.
	var tuples []int32
	var counts []int
	shardMap := make([][]int32, len(shards))
	if len(shards) == 1 {
		tuples, counts = shards[0].tuples, shards[0].counts
		shardMap[0] = make([]int32, len(counts))
		for lg := range shardMap[0] {
			shardMap[0][lg] = int32(lg)
		}
	} else {
		merged := make(map[string]int32)
		key := make([]byte, 4*A)
		for s, sh := range shards {
			shardMap[s] = make([]int32, len(sh.counts))
			for lg := range sh.counts {
				t := sh.tuples[lg*A : (lg+1)*A]
				for a, code := range t {
					key[4*a] = byte(code)
					key[4*a+1] = byte(code >> 8)
					key[4*a+2] = byte(code >> 16)
					key[4*a+3] = byte(code >> 24)
				}
				gid, ok := merged[string(key)]
				if !ok {
					gid = int32(len(counts))
					merged[string(key)] = gid
					tuples = append(tuples, t...)
					counts = append(counts, 0)
				}
				counts[gid] += sh.counts[lg]
				shardMap[s][lg] = gid
			}
		}
	}
	G := len(counts)
	perm := make([]int, G)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool {
		return g.tupleLess(tuples[perm[x]*A:perm[x]*A+A], tuples[perm[y]*A:perm[y]*A+A])
	})
	remap := make([]int32, G)
	g.Counts = make([]int, G)
	g.tuples = make([]int32, len(tuples))
	for newGid, old := range perm {
		remap[old] = int32(newGid)
		g.Counts[newGid] = counts[old]
		copy(g.tuples[newGid*A:(newGid+1)*A], tuples[old*A:old*A+A])
	}
	for s := range shardMap {
		for lg, gid := range shardMap[s] {
			shardMap[s][lg] = remap[gid]
		}
	}

	// Phase 2: rewrite each shard's disjoint ByRow range through its remap.
	parallel.For(workers, len(shards), func(s int) {
		m := shardMap[s]
		for r := shards[s].lo; r < shards[s].hi; r++ {
			if gid := g.ByRow[r]; gid >= 0 {
				g.ByRow[r] = m[gid]
			}
		}
	})
	ev.SetAttr("rows", int64(g.n))
	ev.SetAttr("gids", int64(g.NumGroups()))
	ev.End()
	return g
}
