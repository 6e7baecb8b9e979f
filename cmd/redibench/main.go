// Command redibench is REDI's benchmark: one seeded command that builds
// redi, generates every input from the seed, and measures the real
// `redi serve` over loopback HTTP and the real `redi` CLI, end to end and
// layer by layer. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	go run ./cmd/redibench [-workload name|all] [-seed N] [-seconds S] [-trace 0|1|-1] [-out result.json]
//	go run ./cmd/redibench compare -old 'a*.json' -new 'b*.json'
//
// -trace 0 runs the end-to-end phases, -trace 1 the traced per-layer
// phases, and -1 (the default) both. Each metric is printed as
// `workload metric value unit`; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runConfig fixes how much work one run does.
type runConfig struct {
	redi    string // the redi binary under test
	workDir string // inputs and traces of the run
	seed    uint64
	seconds float64 // measured time of the end-to-end phases
	trace   int     // 0 end to end, 1 per layer, -1 both
	warm    int     // untimed read-only requests per fresh server
	traced  int     // requests in each serve workload's traced pass
}

func defaultConfig() runConfig {
	return runConfig{seed: 1, seconds: 25, trace: -1, warm: 50, traced: 400}
}

// metricValue is one measured metric with the samples it summarises.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload  string                 `json:"workload"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Params records every rate, duration and count the run used.
	Params map[string]any `json:"params"`
	Notes  []string       `json:"notes,omitempty"`
}

func newResult(w string) *result {
	return &result{Workload: w, Metrics: map[string]metricValue{}, Params: map[string]any{}}
}

func (r *result) metric(name string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Unit: endToEndUnit(name), Samples: samples}
}

// layers records every per-layer metric, zero where the workload never
// reached the layer.
func (r *result) layers(lt layerTally) {
	for _, m := range perLayer {
		r.Metrics[m.Name] = metricValue{Value: lt[m.Name], Unit: m.Unit}
	}
}

// tail records the latency tail in the params: it is reported, but it is
// no bounded metric, since its spread across seeds on the 2-vCPU runner
// exceeds the largest bound a metric may have (see README.md).
func (r *result) tail(t tail) {
	if math.IsNaN(t.value) {
		return
	}
	r.Params["lat_tail_ms"] = t.value
	r.Params["lat_tail_pct"] = t.pct
	r.Params["lat_tail_beyond"] = t.beyond
}

// rounds calls round for the run's time: the first round always runs, and
// each later one only if a round as long as the one before still ends
// within the time.
func rounds(seconds float64, round func() error) error {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= duration(seconds); n++ {
		t0 := time.Now()
		if err := round(); err != nil {
			return err
		}
		last = time.Since(t0)
	}
	return nil
}

// roundTally holds one value per round of each end-to-end metric, and
// every latency sample.
type roundTally struct {
	setup, lat, rate, rss []float64
	samples               []float64
}

// add records a round: its set-up seconds, the latencies it timed, its
// throughput and its peak RSS.
func (t *roundTally) add(setup float64, lat []float64, rate, rss float64) {
	t.setup = append(t.setup, setup)
	t.lat = append(t.lat, median(lat))
	t.rate = append(t.rate, rate)
	t.rss = append(t.rss, rss)
	t.samples = append(t.samples, lat...)
}

// report sets each end-to-end metric from its rounds, and lists the
// rounds in the params.
func (t *roundTally) report(r *result) {
	r.metric("setup_s", median(t.setup), len(t.setup))
	r.metric("lat_p50_ms", median(t.samples), len(t.samples))
	r.metric("throughput_rps", median(t.rate), len(t.rate))
	r.metric("peak_rss_mb", median(t.rss), len(t.rss))
	r.tail(tailOf(t.samples))
	r.Params["rounds"] = len(t.setup)
	r.Params["round_setup_s"] = t.setup
	r.Params["round_lat_p50_ms"] = t.lat
	r.Params["round_throughput_rps"] = t.rate
	r.Params["round_peak_rss_mb"] = t.rss
}

func (r *result) count(c *checker) {
	r.Attempted += c.attempted
	r.Failed += c.failed
	r.Notes = append(r.Notes, c.notes...)
	r.Correct = r.Failed == 0
}

// stamp describes where and how a run was made.
type stamp struct {
	NProc               int     `json:"nproc"`
	GOMAXPROCSServer    int     `json:"gomaxprocs_server"`
	GOMAXPROCSGenerator int     `json:"gomaxprocs_generator"`
	Go                  string  `json:"go"`
	GOOS                string  `json:"goos"`
	GOARCH              string  `json:"goarch"`
	GitHead             string  `json:"git_head,omitempty"`
	Seed                uint64  `json:"seed"`
	Seconds             float64 `json:"seconds"`
	Trace               int     `json:"trace"`
}

func newStamp(cfg runConfig) stamp {
	// redi serve inherits the environment, so GOMAXPROCS sets both.
	server := runtime.NumCPU()
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		server = n
	}
	st := stamp{
		NProc:               runtime.NumCPU(),
		GOMAXPROCSServer:    server,
		GOMAXPROCSGenerator: runtime.GOMAXPROCS(0),
		Go:                  runtime.Version(),
		GOOS:                runtime.GOOS,
		GOARCH:              runtime.GOARCH,
		Seed:                cfg.seed,
		Seconds:             cfg.seconds,
		Trace:               cfg.trace,
	}
	// Only a checkout's own .git is read: a run must not look outside it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			st.GitHead = strings.TrimSpace(string(out))
		}
	}
	return st
}

// report is what -out writes and compare reads.
type report struct {
	Stamp   stamp     `json:"stamp"`
	Results []*result `json:"results"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(cmdCompare(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 2 && os.Args[1] == measureArg {
		os.Exit(measureChild(os.Args[2:]))
	}
	cfg := defaultConfig()
	fs := flag.NewFlagSet("redibench", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measured seconds of the end-to-end phases")
	fs.IntVar(&cfg.trace, "trace", cfg.trace, "0: end-to-end phases, 1: traced per-layer phases, -1: both")
	out := fs.String("out", "", "also write the results with their stamp as JSON to this file")
	fs.Parse(os.Args[1:])
	if fs.NArg() != 0 || cfg.seconds <= 0 || cfg.trace < -1 || cfg.trace > 1 {
		fs.Usage()
		os.Exit(2)
	}
	var ws []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "redibench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := run(cfg, ws, ".bench_build")
	if err != nil {
		fmt.Fprintln(os.Stderr, "redibench:", err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "redibench:", err)
			os.Exit(1)
		}
	}
	if !printReport(os.Stdout, rep) {
		os.Exit(1)
	}
}

// run builds redi under buildDir and runs each workload in a fresh
// directory there, removed afterwards.
func run(cfg runConfig, ws []workload, buildDir string) (*report, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	cfg.redi = filepath.Join(buildDir, "redi")
	if out, err := exec.Command("go", "build", "-o", cfg.redi, "redi/cmd/redi").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building redi: %v\n%s", err, out)
	}
	rep := &report{Stamp: newStamp(cfg)}
	for _, w := range ws {
		dir, err := os.MkdirTemp(buildDir, "run-")
		if err != nil {
			return nil, err
		}
		cfg.workDir = dir
		res := newResult(w.name)
		if w.cli {
			err = runCLI(cfg, w, res)
		} else {
			err = runServe(cfg, w, res)
		}
		os.RemoveAll(dir) // scratch inputs; a leftover directory is harmless
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints every metric as `workload metric value unit`, the
// failures, and last the one-line JSON summary. It reports whether every
// output was correct.
func printReport(w *os.File, rep *report) bool {
	type summary struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	sum := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, res := range rep.Results {
		for _, m := range allMetrics() {
			v, ok := res.Metrics[m.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s %s %s %s\n", res.Workload, m.Name, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
			key := m.Name
			if len(rep.Results) > 1 {
				key = res.Workload + "/" + m.Name
			}
			sum.Metrics[key] = metricValue{Value: v.Value, Unit: v.Unit}
		}
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "%s: failed: %s\n", res.Workload, n)
		}
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
	}
	b, err := json.Marshal(sum)
	if err != nil { // a metric that is not a finite number
		fmt.Fprintln(os.Stderr, "redibench:", err)
		return false
	}
	fmt.Fprintln(w, string(b))
	return sum.Correct
}
