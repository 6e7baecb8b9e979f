package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"

	"redi/internal/dataset"
	"redi/internal/rng"
	"redi/internal/serve"
	"redi/internal/synth"
)

// sensitive are the sensitive attributes of the population every
// workload draws on: skewed marginals, 4*2*6*5 = 240 intersectional
// groups, the rarest holding about 0.014% of the rows.
var sensitive = []synth.SensitiveAttr{
	{Name: "race", Values: []string{"white", "black", "hispanic", "asian"}, Weights: []float64{0.64, 0.18, 0.12, 0.06}},
	{Name: "sex", Values: []string{"F", "M"}, Weights: []float64{0.5, 0.5}},
	{Name: "age_band", Values: []string{"18-24", "25-34", "35-44", "45-54", "55-64", "65+"}, Weights: []float64{0.12, 0.2, 0.2, 0.18, 0.17, 0.13}},
	{Name: "region", Values: []string{"south", "midwest", "northeast", "west", "territories"}, Weights: []float64{0.36, 0.22, 0.2, 0.18, 0.04}},
}

const numFeatures = 4

// schemaSpec is the redi -schema spec of the generated rows.
var schemaSpec = func() string {
	parts := []string{"id:cat:id"}
	for _, s := range sensitive {
		parts = append(parts, s.Name+":cat:sensitive")
	}
	for _, f := range synth.FeatureNames(numFeatures) {
		parts = append(parts, f+":num:feature")
	}
	return strings.Join(append(parts, "label:cat:target"), ",")
}()

func sensitiveNames() []string {
	out := make([]string, len(sensitive))
	for i, s := range sensitive {
		out[i] = s.Name
	}
	return out
}

// population generates rows synthetic rows with MCAR nulls in 1% of the
// numeric cells and 0.5% of the region cells. Row i has id p<i>, so rows
// generated beyond a resident set carry fresh ids.
func population(rows int, r *rng.RNG) *dataset.Dataset {
	cfg := synth.PopulationConfig{Rows: rows, Sensitive: sensitive, Features: numFeatures, GroupEffect: 1, LabelNoise: 0.05}
	d := synth.Generate(cfg, r.Split()).Data
	for _, f := range synth.FeatureNames(numFeatures) {
		d = synth.InjectMissing(d, synth.MissingConfig{Attr: f, Rate: 0.01, Mech: synth.MCAR}, r.Split())
	}
	nr := r.Split()
	for row := 0; row < rows; row++ {
		if nr.Bool(0.005) {
			mustSet(d, row, "region", dataset.NullValue(dataset.Categorical))
		}
	}
	return d
}

// mustSet writes a cell the generator itself produced; a failure is a bug.
func mustSet(d *dataset.Dataset, row int, attr string, v dataset.Value) {
	if err := d.SetValue(row, attr, v); err != nil {
		panic(err)
	}
}

func rowRange(from, to int) []int {
	idx := make([]int, to-from)
	for i := range idx {
		idx[i] = from + i
	}
	return idx
}

// clusterByRegion reorders rows so each region's rows are contiguous, as
// in files exported region by region; a column file's per-partition
// value sets can then prune partitions for region predicates.
func clusterByRegion(d *dataset.Dataset) *dataset.Dataset {
	codes, _ := d.Codes("region")
	idx := rowRange(0, d.NumRows())
	sort.SliceStable(idx, func(a, b int) bool { return codes[idx[a]] < codes[idx[b]] })
	return d.Gather(idx)
}

func writeCSV(path string, d *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := d.WriteCSV(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func csvText(d *dataset.Dataset) string {
	var b strings.Builder
	if err := d.WriteCSV(&b); err != nil {
		panic(err) // a strings.Builder cannot fail
	}
	return b.String()
}

// groupCount is one intersectional group present in the resident rows.
type groupCount struct {
	key   dataset.GroupKey
	count int
}

// presentGroups lists the groups of d, rarest first.
func presentGroups(d *dataset.Dataset) []groupCount {
	g := d.GroupBy(sensitiveNames()...)
	var out []groupCount
	for _, k := range g.Keys() {
		out = append(out, groupCount{k, g.Count(k)})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].count < out[b].count })
	return out
}

// decks deals discrete choices in shuffled rounds that hold every card
// once, so the proportions of request kinds and of their discrete
// parameters are the same at every seed; only their order and the
// continuous details vary. Latencies are multimodal by request kind, and
// independent draws would move the median between modes from seed to
// seed.
type decks struct {
	r    *rng.RNG
	left map[string][]int
}

// deal returns the next card, 0 to n-1, of the named deck.
func (d *decks) deal(name string, n int) int {
	if d.left == nil {
		d.left = map[string][]int{}
	}
	l := d.left[name]
	if len(l) == 0 {
		l = d.r.Perm(n)
	}
	d.left[name] = l[1:]
	return l[0]
}

// dealMix returns the index of the next mix entry dealt from the named
// deck, which holds entry i weight times per round.
func (d *decks) dealMix(name string, mix []mixEntry) int {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	c := d.deal(name, total)
	for i, m := range mix {
		if c < m.weight {
			return i
		}
		c -= m.weight
	}
	panic("unreachable: a card beyond the deck")
}

// requestGen draws seeded requests against the resident rows.
type requestGen struct {
	decks
	rows   int          // resident rows; ids p0..p<rows-1> exist
	groups []groupCount // rarest first
	// batches are the ingest bodies still to send, in order.
	batches []string
}

const ingestBatchRows = 250

// ingestBatches cuts the rows of d after the first from into batches of
// ingestBatchRows. One batch in 50 brings a region value no earlier row
// has, so dictionaries, groups and the LSH index grow too.
func ingestBatches(d *dataset.Dataset, from int) []string {
	var out []string
	for lo := from; lo+ingestBatchRows <= d.NumRows(); lo += ingestBatchRows {
		b := d.Gather(rowRange(lo, lo+ingestBatchRows))
		if n := len(out); n%50 == 49 {
			mustSet(b, 0, "region", dataset.Cat(fmt.Sprintf("zone-%d", n)))
		}
		out = append(out, csvText(b))
	}
	return out
}

func get(path string) serve.Record { return serve.Record{Method: "GET", Path: path} }

func post(path string, body any) serve.Record {
	b, err := json.Marshal(body)
	if err != nil {
		panic(err) // maps of strings and numbers always marshal
	}
	return serve.Record{Method: "POST", Path: path, Body: string(b)}
}

// value deals one value of a sensitive attribute.
func (g *requestGen) value(s synth.SensitiveAttr) string {
	return s.Values[g.deal("value."+s.Name, len(s.Values))]
}

func (g *requestGen) attr() synth.SensitiveAttr { return sensitive[g.deal("attr", len(sensitive))] }

func (g *requestGen) num(lo, hi float64) string {
	return strconv.FormatFloat(lo+(hi-lo)*g.r.Float64(), 'f', 3, 64)
}

func (g *requestGen) feature() string { return fmt.Sprintf("f%d", g.deal("feature", numFeatures)) }

// groupPredicate is an equality on every sensitive attribute: one
// intersectional group, 0.01% to 2.3% of the rows.
func (g *requestGen) groupPredicate() string {
	var conj []string
	for _, s := range sensitive {
		conj = append(conj, fmt.Sprintf("%s = '%s'", s.Name, g.value(s)))
	}
	return strings.Join(conj, " and ")
}

// predicate draws a filter between about 0.1% and 64% selective, over the
// expression forms the compiler lowers differently: equality, ranges,
// membership and negated disjunctions.
func (g *requestGen) predicate() string {
	s := g.attr()
	switch g.deal("predicate", 5) {
	case 0:
		return fmt.Sprintf("%s = '%s'", s.Name, g.value(s))
	case 1:
		lo := -3 + 4.5*g.r.Float64()
		width := 0.005 + 1.5*g.r.Float64()*g.r.Float64()
		return fmt.Sprintf("%s between %.3f and %.3f", g.feature(), lo, lo+width)
	case 2:
		a, b := g.value(s), g.value(s)
		return fmt.Sprintf("%s in ('%s', '%s') and %s > %s", s.Name, a, b, g.feature(), g.num(-1, 2))
	case 3:
		return fmt.Sprintf("not (%s = '%s') or %s < %s", s.Name, g.value(s), g.feature(), g.num(-2, 1))
	default:
		return g.groupPredicate()
	}
}

func queryPath(e, mode string) string {
	return "/query?e=" + url.QueryEscape(e) + "&mode=" + mode
}

func (g *requestGen) countQuery() serve.Record { return get(queryPath(g.predicate(), "count")) }

// selectExpr returns at most about 0.5% of the rows: one group cut by a
// numeric range.
func (g *requestGen) selectExpr() string {
	lo := -1 + 2*g.r.Float64()
	return fmt.Sprintf("%s and %s between %.3f and %.3f", g.groupPredicate(), g.feature(), lo, lo+1)
}

func (g *requestGen) selectQuery() serve.Record { return get(queryPath(g.selectExpr(), "select")) }

// discovery probes the LSH index with part of a categorical domain, a
// sample of ids, or values no column holds.
func (g *requestGen) discovery() serve.Record {
	var vals []string
	switch g.deal("discovery", 3) {
	case 0:
		s := g.attr()
		for _, v := range s.Values {
			if g.r.Bool(0.7) {
				vals = append(vals, v)
			}
		}
		vals = append(vals, "unknown")
	case 1:
		for i := 0; i < 20+g.r.Intn(100); i++ {
			vals = append(vals, fmt.Sprintf("p%06d", g.r.Intn(g.rows)))
		}
	default:
		for i := 0; i < 5+g.r.Intn(20); i++ {
			vals = append(vals, fmt.Sprintf("v%d", g.r.Intn(1000)))
		}
	}
	thresholds := []float64{0.3, 0.5, 0.8}
	return post("/discovery", map[string]any{"values": vals, "threshold": thresholds[g.deal("discovery.threshold", 3)]})
}

func (g *requestGen) stats() serve.Record { return get("/stats") }

// auditAt deals, from the named deck, one of every pairing of threshold
// and maximum null rate.
func (g *requestGen) auditAt(deck string, thresholds []int, maxNulls []string) serve.Record {
	c := g.deal(deck, len(thresholds)*len(maxNulls))
	return get(fmt.Sprintf("/audit?threshold=%d&maxnull=%s", thresholds[c/len(maxNulls)], maxNulls[c%len(maxNulls)]))
}

func (g *requestGen) audit() serve.Record {
	return g.auditAt("audit", []int{10, 50, 200, 1000, 5000}, []string{"0.01", "0.05"})
}

func (g *requestGen) ingestAudit() serve.Record {
	return g.auditAt("audit.ingest", []int{10, 50, 200}, []string{"0.05"})
}

// tailorNeed asks for rows of 1 to 4 groups, the first from the rarest
// quarter of the groups present: 5 to 60 rows each, but never more than
// half a group's resident rows, so the draws a request costs stay within
// half the resident row count whichever groups the seed picks.
func (g *requestGen) tailorNeed() map[string]int {
	need := map[string]int{}
	ask := func(gc groupCount) {
		need[string(gc.key)] = max(1, min(5+g.r.Intn(56), gc.count/2))
	}
	rare := g.groups[:(len(g.groups)+3)/4]
	ask(rare[g.deal("tailor.rare", len(rare))])
	for i := g.deal("tailor.groups", 4); i > 0; i-- {
		ask(g.groups[g.r.Intn(len(g.groups))])
	}
	return need
}

func (g *requestGen) tailor() serve.Record {
	return post("/tailor", map[string]any{"need": g.tailorNeed(), "seed": 1 + g.r.Intn(1000)})
}

// ingest posts the next batch; the log is never longer than the batches
// cut for it.
func (g *requestGen) ingest() serve.Record {
	b := g.batches[0]
	g.batches = g.batches[1:]
	return post("/ingest", map[string]string{"csv": b})
}

// readOnly keeps the mix entries that leave the resident state alone; the
// warm-up requests come from them.
func readOnly(mix []mixEntry) []mixEntry {
	var out []mixEntry
	for _, m := range mix {
		if !m.write {
			out = append(out, m)
		}
	}
	return out
}
