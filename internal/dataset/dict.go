package dataset

import (
	"strings"
	"sync"
)

// Dict is the append-only value↔code binding of a categorical column: value
// i has code i, and a code keeps its meaning once assigned. Every holder of
// a column's codes shares one Dict by reference — the live column, its
// snapshots, gathers and clones, partition views, and a column file's
// writer and reader — so no holder re-indexes it.
//
// One holder, the owner, appends. Every other holder keeps a watermark, the
// dictionary length when it took its reference, and treats codes at or
// beyond it as absent; one that must add a value copies its prefix into a
// dictionary it owns. The owner looks values up without locking; the mutex
// orders the owner's inserts against the lookups of other holders and
// against Values.
//
// The zero value is an empty dictionary for an owner that adds to it
// before sharing it.
type Dict struct {
	mu    sync.Mutex
	vals  []string
	index map[string]int32 // nil until the first lookup or insert
}

// NewDict returns a dictionary holding vals, which it keeps: the caller must
// not modify them afterwards. The value index is built on the first lookup
// or Add, so a dictionary no literal is ever bound against is never indexed.
func NewDict(vals []string) *Dict { return &Dict{vals: vals} }

// Add returns the code of s, appending a copy of s when it is absent. Only
// the dictionary's owner may call Add, and only from one goroutine at a
// time; it takes the lock only to insert.
func (d *Dict) Add(s string) int32 {
	if code, ok := d.index[s]; ok {
		return code
	}
	return d.insert(strings.Clone(s))
}

// insert appends s, which the owner has just looked up and not found —
// unless the index was not built yet. s must be a string of its own: a
// value cut from a longer string, such as a field of a CSV record, would
// keep the whole string alive for as long as the dictionary, so callers
// pass a copy.
func (d *Dict) insert(s string) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.index == nil {
		d.buildIndex()
		if code, ok := d.index[s]; ok {
			return code
		}
	}
	code := int32(len(d.vals))
	d.vals = append(d.vals, s)
	d.index[s] = code
	return code
}

// Values returns the dictionary's values, indexed by code. A holder other
// than the owner reads only the prefix below its watermark. The slice is
// shared: callers must not modify it.
func (d *Dict) Values() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.vals[:len(d.vals):len(d.vals)]
}

// lookup returns the code of s under the lock, building the index on first
// use. Any holder may call it; a holder other than the owner must still
// compare the code against its watermark.
func (d *Dict) lookup(s string) (int32, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.index == nil {
		d.buildIndex()
	}
	code, ok := d.index[s]
	return code, ok
}

func (d *Dict) buildIndex() {
	d.index = make(map[string]int32, len(d.vals))
	for code, s := range d.vals {
		d.index[s] = int32(code)
	}
}

// ownedDict returns a new dictionary holding a copy of vals with its index
// built: the one dictionary copy, made when a holder other than the owner
// must add a value of its own.
func ownedDict(vals []string) *Dict {
	d := &Dict{vals: append(make([]string, 0, len(vals)+1), vals...)}
	d.buildIndex()
	return d
}
