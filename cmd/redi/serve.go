package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"redi/internal/serve"
)

// cmdServe loads a CSV into a resident store and serves the integration API
// over HTTP. With -replay it instead runs a JSONL request log through the
// handlers sequentially and writes the responses to stdout — no socket, so
// the output is a deterministic function of the seed data and the log.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	addr := fs.String("addr", "localhost:8080", "listen address")
	sensitive := fs.String("sensitive", "", "comma-separated sensitive attributes (default: schema roles)")
	threshold := fs.Int("threshold", 10, "default coverage threshold for /audit")
	maxNull := fs.Float64("maxnull", defaultMaxNull, "default maximum tolerated null rate for /audit (0 tolerates none)")
	workers := fs.Int("workers", 0, "per-request worker budget (0 = serial)")
	concurrent := fs.Int("concurrent", 4, "max requests executing at once")
	queue := fs.Int("queue", 64, "admission queue depth before 429")
	name := fs.String("name", "resident", "table name in /discovery results")
	replayPath := fs.String("replay", "", "replay a JSONL request log to stdout instead of listening")
	traceBuf := fs.Int("trace-buffer", 64, "flight-recorder capacity in traces (negative disables /debug/requests)")
	slowMS := fs.Int("trace-slow-ms", 0, "retain traces at least this slow in the slow-request log (0 disables)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("serve needs exactly one CSV file")
	}
	if err := checkThreshold(*threshold); err != nil {
		return err
	}
	if err := checkMaxNull(*maxNull); err != nil {
		return err
	}
	schema, err := parseSchema(*schemaSpec)
	if err != nil {
		return err
	}
	d, err := loadCSV(fs.Arg(0), schema)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		StoreConfig: serve.StoreConfig{
			Name:      *name,
			Threshold: *threshold,
			Workers:   *workers,
		},
		MaxNullRate:        *maxNull,
		MaxConcurrent:      *concurrent,
		QueueDepth:         *queue,
		TraceBuffer:        *traceBuf,
		SlowTraceThreshold: time.Duration(*slowMS) * time.Millisecond,
	}
	if *sensitive != "" {
		cfg.Sensitive = strings.Split(*sensitive, ",")
	}
	svc, err := serve.NewService(d, cfg)
	if err != nil {
		return err
	}
	defer svc.Close()
	if *replayPath != "" {
		f, err := os.Open(*replayPath)
		if err != nil {
			return err
		}
		defer f.Close()
		recs, err := serve.ReadLog(f)
		if err != nil {
			return err
		}
		return serve.Replay(svc, recs, os.Stdout)
	}
	st := svc.Store().Stats()
	fmt.Fprintf(os.Stderr, "serving %d rows (%d groups over %s) on http://%s\n",
		st.Rows, st.Groups, strings.Join(st.Sensitive, ","), *addr)
	return http.ListenAndServe(*addr, svc)
}
