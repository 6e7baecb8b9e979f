// Package discovery implements dataset discovery over a table repository
// (tutorial §3.1): IR-style keyword search, unionability and joinability
// search on column domains (exact Jaccard/containment), MinHash sketches
// with an LSH-ensemble index for internet-scale domain search (Zhu et al.,
// VLDB 2016), correlation sketches for join-correlation queries (Santos et
// al., SIGMOD 2021), and unbiased feature discovery that ranks joinable
// features by target correlation penalized by sensitive-attribute
// association (tutorial §5).
package discovery

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"redi/internal/dataset"
)

// Table is a named dataset registered in a repository.
type Table struct {
	Name string
	Data *dataset.Dataset
}

// ColumnRef identifies one column of one table.
type ColumnRef struct {
	Table  string
	Column string
}

// String renders the reference as table.column.
func (c ColumnRef) String() string { return c.Table + "." + c.Column }

// Repository is an in-memory data lake: a set of tables with per-column
// domain indexes and a keyword index.
type Repository struct {
	tables  map[string]*Table
	order   []string
	domains map[ColumnRef]map[string]bool

	// Keyword index state.
	docTerms map[string]map[string]float64 // table -> term -> tf
	docFreq  map[string]float64            // term -> #tables containing it
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{
		tables:   map[string]*Table{},
		domains:  map[ColumnRef]map[string]bool{},
		docTerms: map[string]map[string]float64{},
		docFreq:  map[string]float64{},
	}
}

// Add registers a table. It returns an error on a duplicate name.
func (r *Repository) Add(name string, d *dataset.Dataset) error {
	if _, dup := r.tables[name]; dup {
		return fmt.Errorf("discovery: duplicate table %q", name)
	}
	r.tables[name] = &Table{Name: name, Data: d}
	r.order = append(r.order, name)

	terms := map[string]float64{}
	addTerm := func(s string) {
		for _, tok := range Tokenize(s) {
			terms[tok]++
		}
	}
	addTerm(name)
	s := d.Schema()
	for i := 0; i < s.Len(); i++ {
		a := s.Attr(i)
		addTerm(a.Name)
		if a.Kind == dataset.Categorical {
			ref := ColumnRef{Table: name, Column: a.Name}
			dom := map[string]bool{}
			for _, v := range d.Domain(a.Name) {
				dom[v] = true
				addTerm(v)
			}
			r.domains[ref] = dom
		}
	}
	r.docTerms[name] = terms
	for term := range terms {
		r.docFreq[term]++
	}
	return nil
}

// Table returns a registered table, or nil.
func (r *Repository) Table(name string) *Table { return r.tables[name] }

// Tables returns all table names in registration order.
func (r *Repository) Tables() []string { return append([]string(nil), r.order...) }

// Columns returns all indexed categorical column references, sorted.
func (r *Repository) Columns() []ColumnRef {
	out := make([]ColumnRef, 0, len(r.domains))
	for ref := range r.domains {
		out = append(out, ref)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Table != out[b].Table {
			return out[a].Table < out[b].Table
		}
		return out[a].Column < out[b].Column
	})
	return out
}

// Domain returns the indexed value set of a column (nil if not indexed).
func (r *Repository) Domain(ref ColumnRef) map[string]bool { return r.domains[ref] }

// Tokenize lowercases and splits a string on non-alphanumeric boundaries.
func Tokenize(s string) []string {
	var out []string
	cur := strings.Builder{}
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, c := range strings.ToLower(s) {
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			cur.WriteRune(c)
		} else {
			flush()
		}
	}
	flush()
	return out
}

// SearchHit is one keyword-search result.
type SearchHit struct {
	Table string
	Score float64
}

// KeywordSearch ranks tables by TF-IDF relevance to the query terms,
// returning at most k hits with positive score.
func (r *Repository) KeywordSearch(query string, k int) []SearchHit {
	qTerms := Tokenize(query)
	n := float64(len(r.tables))
	scores := map[string]float64{}
	for _, term := range qTerms {
		df := r.docFreq[term]
		if df == 0 {
			continue
		}
		idf := math.Log(1 + n/df)
		for table, terms := range r.docTerms {
			if tf := terms[term]; tf > 0 {
				scores[table] += (1 + math.Log(tf)) * idf
			}
		}
	}
	hits := make([]SearchHit, 0, len(scores))
	for table, s := range scores {
		hits = append(hits, SearchHit{Table: table, Score: s})
	}
	sort.Slice(hits, func(a, b int) bool {
		if hits[a].Score != hits[b].Score {
			return hits[a].Score > hits[b].Score
		}
		return hits[a].Table < hits[b].Table
	})
	if k < len(hits) {
		hits = hits[:k]
	}
	return hits
}

// Jaccard returns |a ∩ b| / |a ∪ b| of two value sets (1 when both empty).
func Jaccard(a, b map[string]bool) float64 {
	inter := 0
	for v := range a {
		if b[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Containment returns |a ∩ b| / |a|: how much of query domain a is covered
// by candidate b (1 when a is empty). It is the joinability measure of
// JOSIE-style search.
func Containment(a, b map[string]bool) float64 {
	if len(a) == 0 {
		return 1
	}
	inter := 0
	for v := range a {
		if b[v] {
			inter++
		}
	}
	return float64(inter) / float64(len(a))
}

// ColumnMatch is one domain-search result.
type ColumnMatch struct {
	Ref   ColumnRef
	Score float64
}

// UnionableColumns ranks indexed columns by exact Jaccard similarity with
// the query domain, returning those at or above threshold, best first.
func (r *Repository) UnionableColumns(query map[string]bool, threshold float64) []ColumnMatch {
	return r.scanColumns(query, threshold, Jaccard)
}

// JoinableColumns ranks indexed columns by exact containment of the query
// domain, returning those at or above threshold, best first.
func (r *Repository) JoinableColumns(query map[string]bool, threshold float64) []ColumnMatch {
	return r.scanColumns(query, threshold, Containment)
}

func (r *Repository) scanColumns(query map[string]bool, threshold float64, score func(a, b map[string]bool) float64) []ColumnMatch {
	var out []ColumnMatch
	for _, ref := range r.Columns() {
		s := score(query, r.domains[ref])
		if s >= threshold {
			out = append(out, ColumnMatch{Ref: ref, Score: s})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Ref.String() < out[b].Ref.String()
	})
	return out
}

// DomainOf extracts the value set of a categorical column of any dataset,
// for use as a search query.
func DomainOf(d *dataset.Dataset, attr string) map[string]bool {
	out := map[string]bool{}
	for _, v := range d.Domain(attr) {
		out[v] = true
	}
	return out
}
