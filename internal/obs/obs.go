// Package obs is REDI's deterministic observability layer: named counters,
// histograms, and gauges collected into a Registry and exported as
// JSON, Prometheus text, or a human-readable report (§5 transparency — the
// integrated dataset ships with an account of the work that produced it).
//
// Metrics are split into two classes with different contracts:
//
//   - Deterministic (Counter, Histogram): pure algorithmic quantities —
//     operation counts, sizes, depths. These must be bit-identical across
//     runs and across worker counts, exactly like the results they annotate.
//     Instrumented code upholds this by counting integer quantities only
//     (integer addition is commutative, so shard merge order cannot leak)
//     and by never counting anything that depends on chunking, scheduling,
//     or the machine. Registry.Snapshot exposes only this class, and the
//     determinism tests compare its canonical JSON byte-for-byte.
//
//   - Runtime (RuntimeCounter, RuntimeHistogram, Gauge): quantities
//     that legitimately vary run-to-run or with the worker count — chunk
//     geometry, per-worker item counts, wall-clock durations. They are
//     reported (Registry.Report) but excluded from Snapshot.
//
// Wall-clock time enters the package through exactly one injectable seam
// (var now, annotated for the walltime lint rule); trace span and provenance
// step durations flow only through it, so tests pin a fake clock and everything downstream of obs
// stays free of bare time.Now reads.
//
// A nil *Registry — and every metric handle obtained from one — is a valid
// no-op receiver, so hot paths can be instrumented unconditionally and cost
// ~zero when observability is off.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// now is the package's single wall-clock seam. Span durations are
// observational outputs, never algorithm inputs, so one annotated read
// keeps the whole instrumented surface inside the determinism contract.
var now = time.Now //redi:allow walltime single injectable clock seam: span durations are observational outputs, never algorithm inputs

// Now reads the observability clock seam. Instrumented packages that need a
// timestamp (e.g. core's pipeline step timer) route through this instead of
// time.Now so the seam stays singular and test-pinnable.
func Now() time.Time { return now() }

// SetClock replaces the clock seam and returns a restore func. Test-only:
// callers must restore before the test ends and must not race concurrent
// clock reads.
func SetClock(clock func() time.Time) (restore func()) {
	prev := now
	now = clock
	return func() { now = prev }
}

// Counter is a monotonically increasing integer metric. Add is atomic, so
// concurrent workers may share one Counter; because integer addition is
// commutative, the final value is independent of interleaving and worker
// count whenever the added quantities are. A nil Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// shardSlot pads each shard's accumulator to a cache line so concurrent
// workers do not false-share.
type shardSlot struct {
	n int64
	_ [56]byte
}

// ShardedCounter gives each worker a private, cache-line-padded accumulator
// and folds the shards into the parent Counter in ascending shard order on
// Merge — the same discipline as rng.Split: shard identity, not scheduling,
// determines where work lands. For a commutative integer sum the merge
// order cannot change the total; keeping it deterministic anyway means the
// pattern stays safe if a future metric is not commutative.
type ShardedCounter struct {
	c     *Counter
	slots []shardSlot
}

// Sharded returns a per-shard view of c with the given shard count.
// Returns nil (a no-op view) when c is nil.
func (c *Counter) Sharded(shards int) *ShardedCounter {
	if c == nil {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	return &ShardedCounter{c: c, slots: make([]shardSlot, shards)}
}

// Add adds n to the given shard without synchronization; each shard must be
// owned by one goroutine at a time. No-op on a nil receiver.
func (s *ShardedCounter) Add(shard int, n int64) {
	if s != nil {
		s.slots[shard].n += n
	}
}

// Merge folds all shards into the parent counter in shard order and resets
// them. Call after the parallel section has joined.
func (s *ShardedCounter) Merge() {
	if s == nil {
		return
	}
	total := int64(0)
	for i := range s.slots {
		total += s.slots[i].n
		s.slots[i].n = 0
	}
	s.c.Add(total)
}

// Gauge is a runtime-class float metric (last write wins). Gauges may hold
// machine- or schedule-dependent quantities and are therefore excluded from
// the deterministic Snapshot. A nil Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts integer observations into buckets with fixed upper
// bounds (ascending; values above the last bound land in an overflow
// bucket). Buckets, count, and sum are atomic integer adds, so a histogram
// of deterministic quantities is itself deterministic. A nil Histogram is a
// no-op.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1: last bucket is > bounds[len-1]
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records v. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Quantile estimates the p-quantile (p in [0, 1]) of the observed values by
// linear interpolation inside the bucket the rank falls in, Prometheus
// histogram_quantile style. Values in the overflow bucket are reported as
// the last finite bound (quantiles saturate there). Returns 0 on a nil or
// empty histogram.
//
// The estimate is runtime-class by definition: it is an interpolated float
// read of possibly concurrent bucket counts, meant for latency lines
// (p50/p90/p99 in Report/WriteText and on /metrics), and the obsclass lint
// rule rejects it as an input to deterministic counters or histograms.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(total)
	if rank < 1 {
		rank = 1
	}
	cum, lower := int64(0), float64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if i == len(h.bounds) {
			return lower // overflow bucket: saturate at the last finite bound
		}
		upper := float64(h.bounds[i])
		if n > 0 && float64(cum)+float64(n) >= rank {
			return lower + (upper-lower)*(rank-float64(cum))/float64(n)
		}
		cum += n
		lower = upper
	}
	return lower
}

// ExpBounds returns n doubling bucket bounds starting at start:
// start, 2*start, 4*start, ...
func ExpBounds(start int64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	bounds := make([]int64, 0, n)
	for b := start; len(bounds) < n; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Registry holds a process- or run-scoped set of named metrics. The zero
// value is ready to use; a nil *Registry is a valid no-op sink. Metric
// handles are get-or-create and stable, so hot loops should look a handle
// up once and hold it rather than re-resolving the name per iteration.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	hists     map[string]*Histogram
	rcounters map[string]*Counter
	rhists    map[string]*Histogram
	gauges    map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the named deterministic counter, creating it if needed.
// Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named deterministic histogram, creating it with the
// given bucket bounds if needed (an existing histogram keeps its original
// bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.hists == nil {
		r.hists = make(map[string]*Histogram)
	}
	h := r.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// RuntimeCounter returns the named runtime-class counter (reported but
// excluded from the deterministic Snapshot). Returns nil on a nil registry.
func (r *Registry) RuntimeCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rcounters == nil {
		r.rcounters = make(map[string]*Counter)
	}
	c := r.rcounters[name]
	if c == nil {
		c = &Counter{}
		r.rcounters[name] = c
	}
	return c
}

// RuntimeHistogram returns the named runtime-class histogram. Returns nil
// on a nil registry.
func (r *Registry) RuntimeHistogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rhists == nil {
		r.rhists = make(map[string]*Histogram)
	}
	h := r.rhists[name]
	if h == nil {
		h = newHistogram(bounds)
		r.rhists[name] = h
	}
	return h
}

// Gauge returns the named runtime-class gauge. Returns nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// CounterValues returns a name→value copy of the deterministic counters,
// for delta accounting (see DeltaCounters).
func (r *Registry) CounterValues() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	return out
}

// DeltaCounters returns after−before, dropping zero deltas; nil when
// nothing moved. Used to attribute counters to pipeline steps.
func DeltaCounters(before, after map[string]int64) map[string]int64 {
	if len(after) == 0 {
		return nil
	}
	out := make(map[string]int64)
	for name, v := range after {
		if d := v - before[name]; d != 0 {
			out[name] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Merge folds src into r: counters and histogram buckets add, gauges take
// src's value. Used by run-scoped registries (e.g. one pipeline run) to
// publish into an ambient registry after computing exact per-step deltas
// privately. No-op when either registry is nil.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters := make(map[string]int64, len(src.counters))
	for name, c := range src.counters {
		counters[name] = c.Value()
	}
	rcounters := make(map[string]int64, len(src.rcounters))
	for name, c := range src.rcounters {
		rcounters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(src.gauges))
	for name, g := range src.gauges {
		gauges[name] = g.Value()
	}
	hists := copyHists(src.hists)
	rhists := copyHists(src.rhists)
	src.mu.Unlock()

	for _, name := range sortedNames(counters) {
		r.Counter(name).Add(counters[name])
	}
	for _, name := range sortedNames(rcounters) {
		r.RuntimeCounter(name).Add(rcounters[name])
	}
	for _, name := range sortedNames(gauges) {
		r.Gauge(name).Set(gauges[name])
	}
	for _, name := range sortedNames(hists) {
		mergeHist(r.Histogram(name, hists[name].bounds), hists[name])
	}
	for _, name := range sortedNames(rhists) {
		mergeHist(r.RuntimeHistogram(name, rhists[name].bounds), rhists[name])
	}
}

// copyHists deep-copies a histogram map under the source's lock.
func copyHists(src map[string]*Histogram) map[string]*Histogram {
	out := make(map[string]*Histogram, len(src))
	for name, h := range src {
		c := newHistogram(h.bounds)
		for i := range h.buckets {
			c.buckets[i].Store(h.buckets[i].Load())
		}
		c.count.Store(h.count.Load())
		c.sum.Store(h.sum.Load())
		out[name] = c
	}
	return out
}

// mergeHist adds src's buckets into dst. Buckets align because histograms
// are keyed by name and keep their creation bounds; a bound mismatch folds
// everything into dst's overflow via Observe of the sum as a fallback.
func mergeHist(dst, src *Histogram) {
	if len(dst.bounds) != len(src.bounds) {
		dst.Observe(src.sum.Load())
		return
	}
	for i := range src.buckets {
		dst.buckets[i].Add(src.buckets[i].Load())
	}
	dst.count.Add(src.count.Load())
	dst.sum.Add(src.sum.Load())
}

// sortedNames returns m's keys in ascending order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// active is the optional process-wide registry. Instrumented packages
// resolve their sink as Active(site-field): an explicit per-site registry
// wins, otherwise the enabled global, otherwise nil (all no-ops).
var active atomic.Pointer[Registry]

// Enable installs r as the process-wide registry (nil disables). Intended
// for CLI entry points and tests; libraries should prefer per-site fields.
func Enable(r *Registry) {
	active.Store(r)
}

// Active resolves the effective registry for an instrumentation site: the
// site's own registry if non-nil, else the process-wide one, else nil.
func Active(r *Registry) *Registry {
	if r != nil {
		return r
	}
	return active.Load()
}
