// Command redi is the REDI command-line tool: profile, label, audit, and
// tailor datasets from CSV or column files.
//
// Usage:
//
//	redi profile  -schema <spec> <file.csv>
//	redi label    -schema <spec> <file.csv>
//	redi audit    -schema <spec> -sensitive a,b -threshold 25 -maxnull 0.05 <file.csv|file.col>
//	redi tailor   -schema <spec> -sensitive a,b -need "k=v;k=v:COUNT,..." -out out.csv <src1.csv|src1.col> ...
//	redi sample   -schema <spec> -n 100 -seed 1 <file.csv>
//	redi query    -schema <spec> -e "race = 'black' and age between 20 and 40" [-count|-select] <file.csv|file.col>
//	redi convert  -schema <spec> -out <file.col> [-partrows N] <file.csv>
//	redi serve    -schema <spec> -addr localhost:8080 [-replay log.jsonl] <file.csv>
//
// A schema spec is a comma-separated list of name:kind[:role] entries,
// e.g. "id:cat:id,race:cat:sensitive,age:num,label:cat:target".
//
// audit, tailor, and query run every input partition-at-a-time. They
// detect column files (written by convert) by their magic and scan their
// mapped pages instead of loading rows; a CSV input is loaded and viewed in
// -partition N row partitions (0, the default, means 65536; N must be a
// multiple of 64). Results are bit-identical across input formats, partition
// sizes and any -workers setting.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"redi/internal/colfile"
	"redi/internal/core"
	"redi/internal/dataset"
	"redi/internal/expr"
	"redi/internal/obs"
	"redi/internal/profile"
	"redi/internal/rng"
	"redi/internal/trace"
)

// startTrace opens a root span when -trace was given a path. The
// returned finish func ends the span and writes the whole tree as
// Chrome Trace Event JSON (loadable in Perfetto / chrome://tracing)
// to that path; with no path both the span and finish are no-ops.
func startTrace(path, name string) (*trace.Span, func() error) {
	if path == "" {
		return nil, func() error { return nil }
	}
	sp := trace.New(name)
	return sp, func() error {
		sp.End()
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, sp, 1); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// startObs sets up the report requested by the shared -obs/-obs-json
// flags. The registry is installed process-wide, so every counter that
// resolves through obs.Active(nil) — predicate compiles and scans, column
// file pages, partition pruning — lands in it next to the counters of sites
// that take it explicitly. The returned func uninstalls the registry and
// writes the report; the human-readable report goes to stderr because the
// commands use stdout for their primary output (tables, CSV). With neither
// flag set the registry is nil and the func a no-op.
func startObs(show bool, jsonPath string) (*obs.Registry, func() error) {
	if !show && jsonPath == "" {
		return nil, func() error { return nil }
	}
	reg := obs.NewRegistry()
	obs.Enable(reg)
	return reg, func() error {
		obs.Enable(nil)
		return writeObsReport(reg, show, jsonPath)
	}
}

func writeObsReport(reg *obs.Registry, show bool, jsonPath string) error {
	if show {
		if err := reg.WriteText(os.Stderr); err != nil {
			return err
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "label":
		err = cmdLabel(os.Args[2:])
	case "audit":
		err = cmdAudit(os.Args[2:])
	case "tailor":
		err = cmdTailor(os.Args[2:])
	case "sample":
		err = cmdSample(os.Args[2:])
	case "drift":
		err = cmdDrift(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "redi: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "redi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `redi <command> [flags] <files>

commands:
  profile   per-column statistics of a CSV dataset
  label     nutritional label (JSON) of a CSV dataset
  audit     responsible-data audit (coverage + completeness)
  tailor    integrate multiple CSV sources to meet group counts
  sample    uniform random sample of a CSV dataset
  drift     distribution drift between a baseline and a candidate CSV
  query     filter a dataset with a compiled predicate expression
  convert   stream a CSV into a page-aligned column file
  serve     hold a dataset resident and serve the integration API over HTTP

run "redi <command> -h" for flags; every command needs -schema
  name:kind[:role],...   kind: cat|num   role: feature|sensitive|target|id

audit, tailor, and query run partition-at-a-time over every input. They
also accept column files written by convert (detected by magic; -schema is
then taken from the file) and scan their mapped pages; -partition sets the
partition size of CSV inputs.`)
}

// parseSchema parses "name:kind[:role],..." into a schema.
func parseSchema(spec string) (*dataset.Schema, error) {
	if spec == "" {
		return nil, fmt.Errorf("missing -schema")
	}
	var attrs []dataset.Attribute
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(part, ":")
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("bad schema entry %q", part)
		}
		a := dataset.Attribute{Name: fields[0]}
		switch fields[1] {
		case "cat":
			a.Kind = dataset.Categorical
		case "num":
			a.Kind = dataset.Numeric
		default:
			return nil, fmt.Errorf("bad kind %q in %q (want cat|num)", fields[1], part)
		}
		if len(fields) == 3 {
			switch fields[2] {
			case "feature":
				a.Role = dataset.Feature
			case "sensitive":
				a.Role = dataset.Sensitive
			case "target":
				a.Role = dataset.Target
			case "id":
				a.Role = dataset.ID
			default:
				return nil, fmt.Errorf("bad role %q in %q", fields[2], part)
			}
		}
		attrs = append(attrs, a)
	}
	return dataset.NewSchema(attrs...), nil
}

func loadCSV(path string, schema *dataset.Schema) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCSV(f, schema)
}

// input is one dataset argument as a partition-at-a-time view. cf is
// non-nil when pd is file-backed and must be closed after use.
type input struct {
	pd *dataset.Partitioned
	cf *colfile.File
}

func (in *input) close() {
	if in.cf != nil {
		in.cf.Close()
	}
}

// loadInput opens a dataset argument. Column files (detected by magic)
// become views over their own embedded schema and geometry — the schema
// spec is not consulted — and map pages instead of loading rows. CSVs load
// against the spec'd schema and are viewed in partRows-row partitions (0
// means the default size). partRows must be 0 or a positive multiple of 64.
func loadInput(path string, schemaSpec string, partRows int, noMmap bool) (*input, error) {
	if partRows < 0 || partRows%64 != 0 {
		return nil, fmt.Errorf("-partition %d must be 0 or a positive multiple of 64", partRows)
	}
	if colfile.Sniff(path) {
		cf, err := colfile.Open(path, colfile.OpenOptions{DisableMmap: noMmap})
		if err != nil {
			return nil, err
		}
		return &input{pd: dataset.NewPartitioned(cf), cf: cf}, nil
	}
	schema, err := parseSchema(schemaSpec)
	if err != nil {
		return nil, err
	}
	d, err := loadCSV(path, schema)
	if err != nil {
		return nil, err
	}
	return &input{pd: d.Partitions(partRows)}, nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	partRows := fs.Int("partrows", 0, "rows per partition (0 = 65536; must be a positive multiple of 64)")
	outPath := fs.String("out", "", "output column file path")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("convert needs exactly one CSV file")
	}
	if *outPath == "" {
		return fmt.Errorf("missing -out")
	}
	schema, err := parseSchema(*schemaSpec)
	if err != nil {
		return err
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := colfile.ConvertCSV(f, schema, *outPath, colfile.WriterOptions{PartRows: *partRows}); err != nil {
		return err
	}
	// Reopen for the summary: proves the file round-trips before the tool
	// reports success.
	cf, err := colfile.Open(*outPath, colfile.OpenOptions{})
	if err != nil {
		return err
	}
	defer cf.Close()
	fmt.Fprintf(os.Stderr, "converted %d rows into %d partitions of %d (%s)\n",
		cf.NumRows(), cf.NumPartitions(), cf.PartRows(), *outPath)
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("profile needs exactly one CSV file")
	}
	schema, err := parseSchema(*schemaSpec)
	if err != nil {
		return err
	}
	d, err := loadCSV(fs.Arg(0), schema)
	if err != nil {
		return err
	}
	fmt.Print(profile.FormatProfile(profile.Profile(d)))
	return nil
}

func cmdLabel(args []string) error {
	fs := flag.NewFlagSet("label", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	threshold := fs.Int("threshold", 0, "coverage threshold (0 = auto)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("label needs exactly one CSV file")
	}
	if *threshold < 0 {
		return fmt.Errorf("-threshold %d must be at least 1, or 0 for auto", *threshold)
	}
	schema, err := parseSchema(*schemaSpec)
	if err != nil {
		return err
	}
	if err := schema.CheckSensitive(schema.ByRole(dataset.Sensitive)); err != nil {
		return err
	}
	d, err := loadCSV(fs.Arg(0), schema)
	if err != nil {
		return err
	}
	l := profile.BuildLabel(d, profile.LabelConfig{CoverageThreshold: *threshold})
	b, err := l.JSON()
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	sensitive := fs.String("sensitive", "", "comma-separated sensitive attributes (default: schema roles)")
	threshold := fs.Int("threshold", 10, "coverage threshold")
	maxNull := fs.Float64("maxnull", defaultMaxNull, "maximum tolerated null rate")
	partition := fs.Int("partition", 0, "partition size of a CSV input in rows (0 = 65536; multiple of 64)")
	workers := fs.Int("workers", 0, "worker count for partition-parallel stages (0 = serial)")
	noMmap := fs.Bool("no-mmap", false, "use the read-at pager instead of mmap for column files")
	obsFlag := fs.Bool("obs", false, "print the observability report to stderr after the audit")
	obsJSON := fs.String("obs-json", "", "write the observability report as JSON to this path")
	tracePath := fs.String("trace", "", "write a Chrome Trace Event JSON of this run to the given path")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("audit needs exactly one input file")
	}
	if err := checkThreshold(*threshold); err != nil {
		return err
	}
	if err := checkMaxNull(*maxNull); err != nil {
		return err
	}
	in, err := loadInput(fs.Arg(0), *schemaSpec, *partition, *noMmap)
	if err != nil {
		return err
	}
	defer in.close()
	sens, err := resolveSensitive(*sensitive, in.pd)
	if err != nil {
		return err
	}
	if len(sens) == 0 {
		return fmt.Errorf("no sensitive attributes (set -sensitive or schema roles)")
	}
	_, finishObs := startObs(*obsFlag, *obsJSON)
	reqs := []core.Requirement{
		core.CoverageRequirement{Attrs: sens, Threshold: *threshold},
		core.CompletenessRequirement{Sensitive: sens, MaxNullRate: *maxNull},
	}
	sp, finishTrace := startTrace(*tracePath, "audit")
	rep := core.Audit(in.pd, reqs, *workers, sp)
	if err := finishTrace(); err != nil {
		return err
	}
	fmt.Print(rep.String())
	if err := finishObs(); err != nil {
		return err
	}
	if !rep.Satisfied() {
		os.Exit(1)
	}
	return nil
}

// defaultMaxNull is the completeness bound of `redi audit` and of `redi
// serve`'s /audit when no -maxnull is given.
const defaultMaxNull = 0.05

// checkThreshold rejects a coverage -threshold below 1: every pattern has
// at least 0 rows, so such a threshold passes any data.
func checkThreshold(n int) error {
	if n < 1 {
		return fmt.Errorf("-threshold %d must be at least 1", n)
	}
	return nil
}

// resolveSensitive returns the attributes a -sensitive flag names, or the
// first source's sensitive role when the flag is empty, after checking that
// every source holds each one as a categorical attribute.
func resolveSensitive(flagVal string, srcs ...*dataset.Partitioned) ([]string, error) {
	sens := srcs[0].Schema().ByRole(dataset.Sensitive)
	if flagVal != "" {
		sens = strings.Split(flagVal, ",")
	}
	for _, src := range srcs {
		if err := src.Schema().CheckSensitive(sens); err != nil {
			return nil, err
		}
	}
	return sens, nil
}

// checkMaxNull rejects a -maxnull no audit can use: NaN, which fails every
// comparison, so completeness could never pass, and a negative rate.
func checkMaxNull(rate float64) error {
	if math.IsNaN(rate) || rate < 0 {
		return fmt.Errorf("-maxnull %v must be a null rate >= 0", rate)
	}
	return nil
}

// parseNeed parses "race=black;sex=F:100,race=white;sex=M:50".
func parseNeed(spec string) (map[dataset.GroupKey]int, error) {
	out := map[dataset.GroupKey]int{}
	if spec == "" {
		return nil, fmt.Errorf("missing -need")
	}
	for _, part := range strings.Split(spec, ",") {
		i := strings.LastIndex(part, ":")
		if i < 0 {
			return nil, fmt.Errorf("bad need entry %q (want key:count)", part)
		}
		n, err := strconv.Atoi(part[i+1:])
		if err != nil {
			return nil, fmt.Errorf("bad count in %q: %v", part, err)
		}
		out[dataset.GroupKey(part[:i])] = n
	}
	return out, nil
}

func cmdTailor(args []string) error {
	fs := flag.NewFlagSet("tailor", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	sensitive := fs.String("sensitive", "", "comma-separated sensitive attributes (default: schema roles)")
	needSpec := fs.String("need", "", "group count requirements, e.g. race=b;sex=F:100,...")
	outPath := fs.String("out", "", "output CSV path (default stdout)")
	seed := fs.Uint64("seed", 1, "random seed")
	known := fs.Bool("known", true, "use known source distributions (RatioColl); false = UCB")
	partition := fs.Int("partition", 0, "partition size of CSV sources in rows (0 = 65536; multiple of 64)")
	workers := fs.Int("workers", 0, "worker count for partition-parallel stages (0 = serial)")
	noMmap := fs.Bool("no-mmap", false, "use the read-at pager instead of mmap for column files")
	obsFlag := fs.Bool("obs", false, "print the observability report to stderr after the run")
	obsJSON := fs.String("obs-json", "", "write the observability report as JSON to this path")
	tracePath := fs.String("trace", "", "write a Chrome Trace Event JSON of this run to the given path")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("tailor needs at least one source file")
	}
	need, err := parseNeed(*needSpec)
	if err != nil {
		return err
	}
	// CSV and column-file sources mix freely; the pipeline uses them in
	// argument order.
	var sources []*dataset.Partitioned
	for _, path := range fs.Args() {
		in, err := loadInput(path, *schemaSpec, *partition, *noMmap)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		defer in.close()
		sources = append(sources, in.pd)
	}
	sens, err := resolveSensitive(*sensitive, sources...)
	if err != nil {
		return err
	}
	reg, finishObs := startObs(*obsFlag, *obsJSON)
	sp, finishTrace := startTrace(*tracePath, "tailor")
	p := &core.Pipeline{
		Sources: sources, Workers: *workers,
		Sensitive: sens, KnownDistributions: *known, Obs: reg, Trace: sp,
	}
	res, err := p.Run(need, nil, rng.New(*seed))
	if err != nil {
		return err
	}
	if err := finishTrace(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tailored %d rows in %d draws, cost %.2f (strategy %s)\n",
		res.Data.NumRows(), res.Tailor.Draws, res.Tailor.TotalCost, res.Tailor.Strategy)
	if err := finishObs(); err != nil {
		return err
	}
	w := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return res.Data.WriteCSV(w)
}

func cmdDrift(args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	bins := fs.Int("bins", 10, "histogram bins for numeric attributes")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("drift needs exactly two CSV files: baseline candidate")
	}
	schema, err := parseSchema(*schemaSpec)
	if err != nil {
		return err
	}
	baseline, err := loadCSV(fs.Arg(0), schema)
	if err != nil {
		return err
	}
	candidate, err := loadCSV(fs.Arg(1), schema)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %10s %8s %10s %10s\n", "attribute", "PSI", "TV", "W1", "level")
	for _, d := range profile.Drift(baseline, candidate, *bins) {
		fmt.Printf("%-14s %10.4f %8.4f %10.4f %10s\n", d.Attr, d.PSI, d.TV, d.W1, d.DriftLevel())
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	exprSrc := fs.String("e", "", "predicate expression, e.g. \"race = 'black' and age between 20 and 40\"")
	doCount := fs.Bool("count", false, "print only the number of matching rows (default)")
	doSelect := fs.Bool("select", false, "write the matching rows as CSV to stdout")
	explain := fs.Bool("explain", false, "print the parsed AST and disassembled bytecode to stderr")
	partition := fs.Int("partition", 0, "partition size of a CSV input in rows (0 = 65536; multiple of 64)")
	workers := fs.Int("workers", 0, "worker count for partition-parallel stages (0 = serial)")
	noMmap := fs.Bool("no-mmap", false, "use the read-at pager instead of mmap for column files")
	obsFlag := fs.Bool("obs", false, "print the observability report to stderr after the query")
	obsJSON := fs.String("obs-json", "", "write the observability report as JSON to this path")
	tracePath := fs.String("trace", "", "write a Chrome Trace Event JSON of this run to the given path")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("query needs exactly one input file")
	}
	if *exprSrc == "" {
		return fmt.Errorf("missing -e expression")
	}
	if *doCount && *doSelect {
		return fmt.Errorf("-count and -select are mutually exclusive")
	}
	in, err := loadInput(fs.Arg(0), *schemaSpec, *partition, *noMmap)
	if err != nil {
		return err
	}
	defer in.close()
	_, finishObs := startObs(*obsFlag, *obsJSON)
	sp, finishTrace := startTrace(*tracePath, "query")
	comp := sp.Child("query.compile")
	pp, err := expr.Compile(*exprSrc, in.pd)
	comp.End()
	if err != nil {
		return err
	}
	if *explain {
		n, _ := expr.Parse(*exprSrc) // already compiled, cannot fail
		fmt.Fprintln(os.Stderr, "ast:", n.String())
		fmt.Fprint(os.Stderr, pp.Program().Disassemble())
	}
	if *doSelect {
		// Materialize only the matching rows: each touched partition's
		// pages are fetched once by AppendRowsTo.
		out := dataset.New(in.pd.Schema())
		if err := in.pd.AppendRowsTo(out, pp.SelectIndices(*workers, sp)); err != nil {
			return err
		}
		if err := out.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else {
		fmt.Println(pp.Count(*workers, sp))
	}
	if err := finishTrace(); err != nil {
		return err
	}
	return finishObs()
}

func cmdSample(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	schemaSpec := fs.String("schema", "", "schema spec")
	n := fs.Int("n", 10, "sample size")
	seed := fs.Uint64("seed", 1, "random seed")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("sample needs exactly one CSV file")
	}
	schema, err := parseSchema(*schemaSpec)
	if err != nil {
		return err
	}
	d, err := loadCSV(fs.Arg(0), schema)
	if err != nil {
		return err
	}
	return d.SampleRows(rng.New(*seed), *n).WriteCSV(os.Stdout)
}
