package obs

import (
	"bytes"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	r.Histogram("h", ExpBounds(1, 4)).Observe(3)
	r.RuntimeCounter("rc").Inc()
	r.RuntimeHistogram("rh", ExpBounds(1, 4)).Observe(1)
	r.Gauge("g").Set(1.5)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %v, want 0", got)
	}
	r.Merge(NewRegistry())
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot has counters: %v", snap.Counters)
	}
	if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if c != r.Counter("hits") {
		t.Fatal("Counter is not get-or-create stable")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes", []int64{1, 2, 4, 8})
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 8, 9, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["sizes"]
	if snap.Count != 9 {
		t.Fatalf("count = %d, want 9", snap.Count)
	}
	if snap.Sum != 0+1+2+3+4+5+8+9+100 {
		t.Fatalf("sum = %d", snap.Sum)
	}
	wantBuckets := []int64{2, 1, 2, 2, 2} // ≤1, ≤2, ≤4, ≤8, +Inf
	for i, want := range wantBuckets {
		if snap.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d", i, snap.Buckets[i].Count, want)
		}
	}
	if last := snap.Buckets[len(snap.Buckets)-1]; last.LE != -1 {
		t.Fatalf("overflow bucket LE = %d, want -1", last.LE)
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(1, 5)
	want := []int64{1, 2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
}

func TestSnapshotCanonicalBytes(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b.two").Add(2)
		r.Counter("a.one").Add(1)
		r.Histogram("h", ExpBounds(1, 3)).Observe(2)
		// Runtime-class metrics must not leak into the snapshot.
		r.RuntimeCounter("noise").Add(42)
		r.Gauge("g").Set(3.14)
		return r
	}
	b1, err := build().MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := build().MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", b1, b2)
	}
	if strings.Contains(string(b1), "noise") || strings.Contains(string(b1), "3.14") {
		t.Fatalf("runtime metrics leaked into snapshot:\n%s", b1)
	}
}

// TestSpanClockSeam: Now reads the one clock seam that every span and
// step duration flows through, and SetClock's restore puts it back.
func TestSpanClockSeam(t *testing.T) {
	tick := time.Unix(100, 0)
	restore := SetClock(func() time.Time {
		tick = tick.Add(7 * time.Millisecond)
		return tick
	})
	start := Now()
	if d := Now().Sub(start); d != 7*time.Millisecond {
		t.Fatalf("seam elapsed = %v, want 7ms", d)
	}
	if got := Now(); !got.Equal(tick) {
		t.Fatalf("Now() did not route through the seam")
	}
	restore()
	if got := Now(); got.Equal(tick) || got.Before(time.Unix(1e9, 0)) {
		t.Fatalf("restore did not reinstate the wall clock: %v", got)
	}
}

func TestMerge(t *testing.T) {
	run := NewRegistry()
	run.Counter("c").Add(3)
	run.Histogram("h", ExpBounds(1, 3)).Observe(2)
	run.RuntimeCounter("rc").Add(5)
	run.Gauge("g").Set(1.25)

	ambient := NewRegistry()
	ambient.Counter("c").Add(10)
	ambient.Merge(run)

	if got := ambient.Counter("c").Value(); got != 13 {
		t.Fatalf("merged counter = %d, want 13", got)
	}
	if got := ambient.RuntimeCounter("rc").Value(); got != 5 {
		t.Fatalf("merged runtime counter = %d, want 5", got)
	}
	if got := ambient.Gauge("g").Value(); got != 1.25 {
		t.Fatalf("merged gauge = %v", got)
	}
	h := ambient.Report().Histograms["h"]
	if h.Count != 1 || h.Sum != 2 {
		t.Fatalf("merged histogram = %+v", h)
	}
}

func TestDeltaCounters(t *testing.T) {
	before := map[string]int64{"a": 1, "b": 2}
	after := map[string]int64{"a": 4, "b": 2, "c": 7}
	d := DeltaCounters(before, after)
	if len(d) != 2 || d["a"] != 3 || d["c"] != 7 {
		t.Fatalf("delta = %v", d)
	}
	if DeltaCounters(after, after) != nil {
		t.Fatal("no-change delta should be nil")
	}
	if DeltaCounters(nil, nil) != nil {
		t.Fatal("empty delta should be nil")
	}
}

func TestEnableActive(t *testing.T) {
	defer Enable(nil)
	if Active(nil) != nil {
		t.Fatal("Active(nil) with no global should be nil")
	}
	global := NewRegistry()
	Enable(global)
	if Active(nil) != global {
		t.Fatal("Active(nil) should resolve to the enabled global")
	}
	site := NewRegistry()
	if Active(site) != site {
		t.Fatal("explicit site registry must win over the global")
	}
	Enable(nil)
	if Active(nil) != nil {
		t.Fatal("Enable(nil) should disable the global")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("coverage.dfs_nodes").Add(12)
	r.Histogram("cleaning.er_cluster_size", []int64{1, 2}).Observe(2)
	r.RuntimeCounter("parallel.calls").Add(3)
	r.Gauge("workers").Set(8)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE redi_coverage_dfs_nodes counter",
		"redi_coverage_dfs_nodes 12",
		"# TYPE redi_cleaning_er_cluster_size histogram",
		`redi_cleaning_er_cluster_size_bucket{le="2"} 1`,
		`redi_cleaning_er_cluster_size_bucket{le="+Inf"} 1`,
		"redi_cleaning_er_cluster_size_sum 2",
		"redi_cleaning_er_cluster_size_count 1",
		"redi_parallel_calls 3",
		"# TYPE redi_workers gauge",
		"redi_workers 8",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestWritePrometheusSanitizationContract pins the exposition-format
// guarantees: every family name is a legal Prometheus identifier, no
// family is declared twice — even when sanitization collapses distinct
// source names onto one identifier or the same name is registered in
// both metric classes — and the whole output is a deterministic function
// of the registry contents.
func TestWritePrometheusSanitizationContract(t *testing.T) {
	r := NewRegistry()
	// Three distinct source names that all sanitize to redi_a_b.
	r.Counter("a.b").Add(1)
	r.Counter("a_b").Add(2)
	r.Counter("a-b").Add(3)
	// The same name again in the runtime class.
	r.RuntimeCounter("a.b").Add(4)
	// Name-illegal bytes: multi-byte unicode, space, quote, leading digit.
	r.Counter("söme metric\"x").Add(5)
	r.Gauge("9lives").Set(1)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	nameRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"\})? \S+$`)
	families := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if !nameRE.MatchString(fields[2]) {
				t.Fatalf("illegal family name %q in %q", fields[2], line)
			}
			if families[fields[2]] {
				t.Fatalf("family %q declared twice:\n%s", fields[2], out)
			}
			families[fields[2]] = true
			continue
		}
		if !sampleRE.MatchString(line) {
			t.Fatalf("malformed sample line %q", line)
		}
	}

	// Collision resolution is deterministic: det counters first in sorted
	// order ("a-b" < "a.b" < "a_b" bytewise), then the runtime section.
	for _, want := range []string{
		"redi_a_b 3", "redi_a_b_2 1", "redi_a_b_3 2", "redi_a_b_4 4",
		"redi_s__me_metric_x 5", // 'ö' is two UTF-8 bytes, two underscores
		"redi_9lives 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Fatal("WritePrometheus is not deterministic for a fixed registry state")
	}
}

func TestWriteTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("dt.draws").Add(44)
	r.RuntimeCounter("parallel.items").Add(9)
	var txt bytes.Buffer
	if err := r.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "dt.draws") || !strings.Contains(txt.String(), "44") {
		t.Fatalf("text report missing counter:\n%s", txt.String())
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"dt.draws": 44`) {
		t.Fatalf("json report missing counter:\n%s", js.String())
	}
	if got := r.ExpvarFunc()().(Report).Counters["dt.draws"]; got != 44 {
		t.Fatalf("expvar func counter = %d", got)
	}
}
