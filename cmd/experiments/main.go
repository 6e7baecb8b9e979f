// Command experiments regenerates the evaluation tables of DESIGN.md
// (E1–E18). With no arguments it runs everything; pass experiment ids to
// run a subset.
//
//	go run ./cmd/experiments                  # all tables, serially
//	go run ./cmd/experiments E1 E12           # selected tables
//	go run ./cmd/experiments -seed 7 E4       # alternate seed
//	go run ./cmd/experiments -parallel -1     # run experiments on all CPUs
//	go run ./cmd/experiments -obs E3 E6       # print the observability report
//	go run ./cmd/experiments -obs-json o.json # persist the report as JSON
//	go run ./cmd/experiments -debug-addr localhost:6060  # pprof/expvar/metrics
//
// Experiments are pure functions of the seed, so -parallel changes only
// wall time, never table contents (the measured-ms cells of E3/E18 vary
// with machine load either way). The same holds for the deterministic
// counter section of the -obs report: it is bit-identical at any worker
// count; only the runtime section (chunk geometry) varies.
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"time"

	"redi/internal/experiments"
	"redi/internal/obs"
	"redi/internal/parallel"
)

func main() {
	seed := flag.Uint64("seed", 1, "base seed for all experiments")
	workers := flag.Int("parallel", 0, "experiments to run concurrently (0 = serial, -1 = all CPUs)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	obsFlag := flag.Bool("obs", false, "print the observability report after the run")
	obsJSON := flag.String("obs-json", "", "write the observability report as JSON to this path")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof, expvar, and /metrics (Prometheus text) on this address, e.g. localhost:6060")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}

	var reg *obs.Registry
	if *obsFlag || *obsJSON != "" || *debugAddr != "" {
		reg = obs.NewRegistry()
		obs.Enable(reg)
		parallel.SetObserver(reg)
	}
	if *debugAddr != "" {
		// pprof registers its handlers on http.DefaultServeMux at import;
		// expvar exposes /debug/vars. The obs report joins both.
		expvar.Publish("redi.obs", expvar.Func(reg.ExpvarFunc()))
		http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			if err := reg.WritePrometheus(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		go func() {
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (pprof: /debug/pprof, expvar: /debug/vars, prometheus: /metrics)\n", *debugAddr)
	}

	want := map[string]bool{}
	for _, id := range flag.Args() {
		want[id] = true
	}
	all := experiments.All()
	known := map[string]bool{}
	for _, e := range all {
		known[e.ID] = true
	}
	for id := range want {
		if !known[id] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: E1..E18\n", id)
			os.Exit(2)
		}
	}
	var selected []experiments.Experiment
	for _, e := range all {
		if len(want) == 0 || want[e.ID] {
			selected = append(selected, e)
		}
	}
	start := time.Now()
	results := experiments.RunAll(selected, *seed, *workers)
	total := time.Since(start)
	for _, res := range results {
		fmt.Println(res.Table.String())
		fmt.Printf("(%s completed in %v)\n\n", res.ID, res.Elapsed.Round(time.Millisecond))
	}
	fmt.Printf("ran %d experiments in %v (workers=%d)\n",
		len(results), total.Round(time.Millisecond), parallel.Workers(*workers))

	if reg != nil {
		if *obsFlag {
			fmt.Println()
			if err := reg.WriteText(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "obs report: %v\n", err)
				os.Exit(1)
			}
		}
		if *obsJSON != "" {
			f, err := os.Create(*obsJSON)
			if err == nil {
				err = reg.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "obs json: %v\n", err)
				os.Exit(1)
			}
		}
	}
}
