package main

import "redi/internal/serve"

// The workload table. Request counts are per round and were calibrated
// once on a 2-core x86-64 runner so that a round, server start and
// warm-up included, takes three to four seconds there (see README.md).

// workload is one traffic mix (serve-*) or command batch (cli-batch).
type workload struct {
	name string
	why  string
	// cli marks the command-line workload; the rest drive redi serve.
	cli bool
	// rows is the resident row count (serve) or the CSV row count (cli).
	rows int
	// serial requests are sent one at a time over one connection, each
	// timed; closed requests then go over conns connections, timed as a
	// whole.
	serial, closed int
	mix            []mixEntry
	// passes is how many command passes a cli-batch round runs.
	passes int
}

// mixEntry draws one request kind, weight times in each round of the
// mix's deck.
type mixEntry struct {
	weight int
	draw   func(g *requestGen) serve.Record
	// write marks a request that changes the resident state.
	write bool
}

// writes reports whether the mix changes the resident state. Responses
// then depend on arrival order, so the run is checked by final state
// rather than response by response, and its closed loop never reuses a
// request.
func (w workload) writes() bool {
	for _, m := range w.mix {
		if m.write {
			return true
		}
	}
	return false
}

var workloads = []workload{
	{
		name:   "serve-query",
		why:    "read-only predicate counts, selects, discovery and stats: the predicate VM, snapshots and HTTP/JSON work while coverage, dt and ingest idle",
		rows:   300_000,
		serial: 1000,
		closed: 2000,
		mix: []mixEntry{
			{12, (*requestGen).countQuery, false},
			{3, (*requestGen).selectQuery, false},
			{3, (*requestGen).discovery, false},
			{2, (*requestGen).stats, false},
		},
	},
	{
		name:   "serve-ingest",
		why:    "250-row ingests beside audits and counts: index maintenance under the write lock, with readers and the writer waiting on each other",
		rows:   50_000,
		serial: 70,
		closed: 120,
		mix: []mixEntry{
			{3, (*requestGen).ingest, true},
			{1, (*requestGen).ingestAudit, false},
			{1, (*requestGen).countQuery, false},
		},
	},
	{
		name:   "serve-audit",
		why:    "read-only audits and tailoring over a cache-sized resident set: the coverage MUP walk (serialised) and dt sampling work while ingest idles",
		rows:   50_000,
		serial: 120,
		closed: 360,
		mix: []mixEntry{
			{11, (*requestGen).audit, false},
			{6, (*requestGen).tailor, false},
			{3, (*requestGen).countQuery, false},
		},
	},
	{
		name:   "cli-batch",
		why:    "redi audit, query and tailor processes over a CSV and its column file: the CSV reader, colfile pages and partitioned kernels, no server",
		cli:    true,
		rows:   100_000,
		passes: 2,
	},
}
