package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// BucketCount is one histogram bucket: observations ≤ LE (the final bucket
// reports LE = -1, meaning +Inf).
type BucketCount struct {
	LE    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a histogram's exported state. Quantiles is populated
// only for runtime-class histograms in Report — quantile estimates are
// interpolated floats and never enter the deterministic Snapshot surface.
type HistogramSnapshot struct {
	Count     int64              `json:"count"`
	Sum       int64              `json:"sum"`
	Buckets   []BucketCount      `json:"buckets"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// Snapshot is the deterministic slice of a registry: counters and
// histograms only. Its canonical JSON (encoding/json sorts map keys) is
// bit-identical across runs and worker counts for a correctly instrumented
// program — that is the property the determinism tests assert.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Report is the full exported state: the deterministic snapshot plus the
// runtime-class sections.
type Report struct {
	Snapshot
	RuntimeCounters   map[string]int64             `json:"runtime_counters,omitempty"`
	RuntimeHistograms map[string]HistogramSnapshot `json:"runtime_histograms,omitempty"`
	Gauges            map[string]float64           `json:"gauges,omitempty"`
}

// Snapshot returns the registry's deterministic metrics. A nil registry
// yields an empty (but marshalable) snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{Counters: map[string]int64{}}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			snap.Histograms[name] = snapHistogram(h)
		}
	}
	return snap
}

// Report returns the registry's full exported state.
func (r *Registry) Report() Report {
	rep := Report{Snapshot: r.Snapshot()}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.rcounters) > 0 {
		rep.RuntimeCounters = make(map[string]int64, len(r.rcounters))
		for name, c := range r.rcounters {
			rep.RuntimeCounters[name] = c.Value()
		}
	}
	if len(r.rhists) > 0 {
		rep.RuntimeHistograms = make(map[string]HistogramSnapshot, len(r.rhists))
		for name, h := range r.rhists {
			hs := snapHistogram(h)
			if hs.Count > 0 {
				hs.Quantiles = map[string]float64{
					"p50": h.Quantile(0.50),
					"p90": h.Quantile(0.90),
					"p99": h.Quantile(0.99),
				}
			}
			rep.RuntimeHistograms[name] = hs
		}
	}
	if len(r.gauges) > 0 {
		rep.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			rep.Gauges[name] = g.Value()
		}
	}
	return rep
}

func snapHistogram(h *Histogram) HistogramSnapshot {
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.sum.Load(),
		Buckets: make([]BucketCount, len(h.buckets)),
	}
	for i := range h.buckets {
		le := int64(-1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{LE: le, Count: h.buckets[i].Load()}
	}
	return s
}

// WriteJSON writes the full report as indented JSON. encoding/json emits
// map keys sorted, so the bytes are canonical for a given state.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Report(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format, names sanitized and prefixed with redi_, families sorted by name.
// Histogram buckets are cumulative per the format's convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	rep := r.Report()
	nm := newPromNamer()
	var sb strings.Builder
	writePromValues(&sb, nm, rep.Counters, "counter")
	writePromValues(&sb, nm, rep.RuntimeCounters, "counter")
	writePromHists(&sb, nm, rep.Histograms)
	writePromHists(&sb, nm, rep.RuntimeHistograms)
	for _, name := range sortedNames(rep.Gauges) {
		pn := nm.name(name)
		fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(rep.Gauges[name]))
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// promNamer gives every exported family a unique Prometheus name.
// Sanitization maps distinct dotted names onto one identifier ("a.b" and
// "a_b" both become redi_a_b), and the same source name may be registered
// in both the deterministic and runtime sections; duplicate families are
// invalid exposition, so later claimants get a _2/_3 suffix. Sections are
// written in a fixed order over sorted names, so the assignment is a
// deterministic function of the registry's contents.
type promNamer struct {
	taken map[string]bool
}

func newPromNamer() *promNamer { return &promNamer{taken: map[string]bool{}} }

func (n *promNamer) name(source string) string {
	pn := promName(source)
	if !n.taken[pn] {
		n.taken[pn] = true
		return pn
	}
	for i := 2; ; i++ {
		cand := fmt.Sprintf("%s_%d", pn, i)
		if !n.taken[cand] {
			n.taken[cand] = true
			return cand
		}
	}
}

func writePromValues(sb *strings.Builder, nm *promNamer, m map[string]int64, typ string) {
	for _, name := range sortedNames(m) {
		pn := nm.name(name)
		fmt.Fprintf(sb, "# TYPE %s %s\n%s %d\n", pn, typ, pn, m[name])
	}
}

func writePromHists(sb *strings.Builder, nm *promNamer, m map[string]HistogramSnapshot) {
	for _, name := range sortedNames(m) {
		h := m[name]
		pn := nm.name(name)
		fmt.Fprintf(sb, "# TYPE %s histogram\n", pn)
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if b.LE >= 0 {
				le = fmt.Sprintf("%d", b.LE)
			}
			fmt.Fprintf(sb, "%s_bucket{le=%q} %d\n", pn, le, cum)
		}
		fmt.Fprintf(sb, "%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count)
		for _, q := range sortedNames(h.Quantiles) {
			fmt.Fprintf(sb, "%s_quantile{q=%q} %s\n", pn, q, promFloat(h.Quantiles[q]))
		}
	}
}

// promFloat renders a float without exponent notation surprises for the
// common cases (Prometheus accepts Go's %g, so this is cosmetic).
func promFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}

// promName sanitizes a dotted metric name into a Prometheus identifier.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("redi_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			sb.WriteByte(c)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// WriteText writes a human-readable report: deterministic counters and
// histograms first, then the runtime sections.
func (r *Registry) WriteText(w io.Writer) error {
	rep := r.Report()
	var sb strings.Builder
	sb.WriteString("observability report\n")
	writeTextValues(&sb, "counters", rep.Counters)
	writeTextHists(&sb, "histograms", rep.Histograms)
	writeTextValues(&sb, "runtime counters", rep.RuntimeCounters)
	writeTextHists(&sb, "runtime histograms", rep.RuntimeHistograms)
	if len(rep.Gauges) > 0 {
		sb.WriteString("gauges:\n")
		for _, name := range sortedNames(rep.Gauges) {
			fmt.Fprintf(&sb, "  %-40s %s\n", name, promFloat(rep.Gauges[name]))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeTextValues(sb *strings.Builder, title string, m map[string]int64) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(sb, "%s:\n", title)
	for _, name := range sortedNames(m) {
		fmt.Fprintf(sb, "  %-40s %d\n", name, m[name])
	}
}

func writeTextHists(sb *strings.Builder, title string, m map[string]HistogramSnapshot) {
	if len(m) == 0 {
		return
	}
	fmt.Fprintf(sb, "%s:\n", title)
	for _, name := range sortedNames(m) {
		h := m[name]
		fmt.Fprintf(sb, "  %-40s count=%d sum=%d", name, h.Count, h.Sum)
		for _, b := range h.Buckets {
			if b.Count == 0 {
				continue
			}
			if b.LE < 0 {
				fmt.Fprintf(sb, " +Inf:%d", b.Count)
			} else {
				fmt.Fprintf(sb, " ≤%d:%d", b.LE, b.Count)
			}
		}
		for _, q := range sortedNames(h.Quantiles) {
			fmt.Fprintf(sb, " %s=%s", q, promFloat(h.Quantiles[q]))
		}
		sb.WriteByte('\n')
	}
}

// ExpvarFunc adapts the registry for expvar.Publish(expvar.Func(...)).
func (r *Registry) ExpvarFunc() func() any {
	return func() any { return r.Report() }
}

// MarshalSnapshot returns the canonical JSON bytes of the deterministic
// snapshot — the unit of comparison for worker-invariance tests.
func (r *Registry) MarshalSnapshot() ([]byte, error) {
	return json.MarshalIndent(r.Snapshot(), "", "  ")
}
