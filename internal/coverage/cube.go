package coverage

import (
	"redi/internal/dataset"
	"redi/internal/parallel"
)

// cubeLimit bounds the lattice size Π(|D_i|+1) up to which a Space counts
// with a dense cube of pattern counts instead of per-(attribute, value) row
// bitmaps. It caps the cube at 512 KiB of counts (1<<16 cells of 8 bytes,
// per build shard while NewSpace runs). It also caps what an ingest batch
// costs the cube beyond its rows: a new domain value re-lays the cube out
// once (one copy of at most 1<<16 cells), and each new row adds into its
// 2^k generalizations (k = its non-null attributes; 2^k never exceeds the
// lattice). A cold build's fold touches each cell once per attribute.
const cubeLimit = 1 << 16

// slotCounts returns each attribute's cube slot count |D_i|+1: slot 0 is
// the wildcard, slot v+1 value v. Their product is the lattice size.
func slotCounts(domains [][]string) []int {
	dims := make([]int, len(domains))
	for i, dom := range domains {
		dims[i] = len(dom) + 1
	}
	return dims
}

// latticeFits reports whether the lattice over dims has at most limit
// patterns, without overflowing on wide lattices.
func latticeFits(dims []int, limit int) bool {
	size := 1
	for _, d := range dims {
		if size > limit/d {
			return false
		}
		size *= d
	}
	return true
}

// cubeStrides lays a cube over dims out row-major (the last attribute
// varies fastest) and returns the strides and the cell count.
func cubeStrides(dims []int) (strides []int, size int) {
	strides = make([]int, len(dims))
	size = 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = size
		size *= dims[i]
	}
	return strides, size
}

// fillCube builds the cube backend, partition-at-a-time and
// column-at-a-time like the bitmap fill: per partition, one pass per
// attribute accumulates each row's cell of exact slots (a null code adds
// slot 0, the wildcard), then one pass counts the rows into their cells.
// Shards count into private cubes that merge in shard order; the fold then
// turns the exact-slot counts into pattern counts.
func (s *Space) fillCube(pd *dataset.Partitioned, cols []int, dims []int, workers int) {
	strides, size := cubeStrides(dims)
	src := pd.Source()
	shards := parallel.MapChunks(workers, pd.NumPartitions(), func(_, plo, phi int) []int {
		cells := make([]int, size)
		var idx []int32 // cells stay under cubeLimit, so an index fits in int32
		for p := plo; p < phi; p++ {
			for i, ci := range cols {
				codes := src.PartitionCatCodes(p, ci)
				if i == 0 {
					if cap(idx) < len(codes) {
						idx = make([]int32, len(codes))
					}
					idx = idx[:len(codes)]
					clear(idx)
				}
				st := int32(strides[i])
				for r, c := range codes {
					idx[r] += (c + 1) * st
				}
			}
			for _, c := range idx {
				cells[c]++
			}
		}
		return cells
	})
	if len(shards) == 0 {
		shards = append(shards, make([]int, size)) // no partitions: every count is 0
	}
	cells := shards[0]
	for _, sh := range shards[1:] {
		for c, n := range sh {
			cells[c] += n
		}
	}
	foldCube(cells, strides, dims)
	s.cells, s.strides = cells, strides
}

// foldCube turns exact-slot row counts into pattern counts: for each
// attribute in turn, every value slot is added into the wildcard slot
// beside it. After attribute i, a cell with slot 0 at i counts the rows
// whatever their value of i, so after all attributes cells[cell(p)] counts
// the rows matching p. A row null at i sits in slot 0 from the start and
// so matches only wildcards there.
func foldCube(cells, strides, dims []int) {
	for i, st := range strides {
		span := st * dims[i]
		for base := 0; base < len(cells); base += span {
			for w := base; w < base+st; w++ {
				sum := 0
				for c := w + st; c < w+span; c += st {
					sum += cells[c]
				}
				cells[w] += sum
			}
		}
	}
}

// relayout moves a cube laid out over oldDims into one over newDims (each
// at least as large, since domains only grow). Every existing slot keeps
// its number, so each old cell moves unchanged; the new values' slots
// start at zero, as no row carries them yet. The last attribute varies
// fastest in both layouts, so cells move in runs of its old slot count.
func relayout(cells, oldDims, newDims []int) (out, strides []int) {
	oldStrides, _ := cubeStrides(oldDims)
	strides, size := cubeStrides(newDims)
	out = make([]int, size)
	last := len(oldDims) - 1
	run := oldDims[last]
	slot := make([]int, last) // odometer over every attribute but the last
	for {
		from, to := 0, 0
		for i, v := range slot {
			from += v * oldStrides[i]
			to += v * strides[i]
		}
		copy(out[to:to+run], cells[from:from+run])
		i := last - 1
		for ; i >= 0; i-- {
			slot[i]++
			if slot[i] < oldDims[i] {
				break
			}
			slot[i] = 0
		}
		if i < 0 {
			return out, strides
		}
	}
}

// addCubeRows counts new rows into the cube: each row adds one to every
// generalization of its cell — each non-null attribute either keeps the
// row's slot or takes the wildcard — which are exactly the patterns it
// matches. codes[i] holds attribute i's codes of the new rows.
func (s *Space) addCubeRows(codes [][]int32) {
	gen := make([]int, 0, 1<<len(codes))
	for r := range codes[0] {
		gen = append(gen[:0], 0)
		for i, col := range codes {
			if c := col[r]; c >= 0 {
				off := int(c+1) * s.strides[i]
				for _, g := range gen { // range reads the old length: this doubles gen
					gen = append(gen, g+off)
				}
			}
		}
		for _, g := range gen {
			s.cells[g]++
		}
	}
}
