package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// cliPass draws one pass of commands: an audit, two counts (one scoped to
// a region, whose rows are clustered, so column-file partitions can be
// pruned), a select and a tailoring run.
func (g *requestGen) cliPass() [][]string {
	region := g.value(sensitive[len(sensitive)-1])
	need := g.tailorNeed()
	keys := make([]string, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = k + ":" + strconv.Itoa(need[k])
	}
	return [][]string{
		{"audit", "-threshold", strconv.Itoa([]int{10, 50, 200}[g.deal("cli.audit", 3)]), "-maxnull", "0.05"},
		{"query", "-count", "-e", g.predicate()},
		{"query", "-count", "-e", fmt.Sprintf("region = '%s' and (%s)", region, g.predicate())},
		{"query", "-select", "-e", g.selectExpr()},
		{"tailor", "-need", strings.Join(keys, ","), "-seed", strconv.Itoa(1 + g.r.Intn(1000))},
	}
}

// cliBatch is one run of the cli-batch workload.
type cliBatch struct {
	cfg      runConfig
	csv, col string
	// cmds are a round's commands: w.passes passes drawn from the seed.
	cmds [][]string
	res  *result
	chk  *checker
}

// partRows is the column file's partition size: 8192 rows keeps several
// partitions per region at every row count the workload uses.
const partRows = 8192

// drawCLIInputs draws cli-batch's rows, clustered by region, and a round's
// command passes.
func drawCLIInputs(w workload, seed uint64) (*dataset.Dataset, [][]string) {
	r := rng.New(seed)
	rData, rReq := r.Split(), r.Split()
	d := clusterByRegion(population(w.rows, rData))
	g := &requestGen{decks: decks{r: rReq}, rows: w.rows, groups: presentGroups(d)}
	var cmds [][]string
	for p := 0; p < w.passes; p++ {
		cmds = append(cmds, g.cliPass()...)
	}
	return d, cmds
}

func runCLI(cfg runConfig, w workload, res *result) error {
	d, cmds := drawCLIInputs(w, cfg.seed)
	c := &cliBatch{
		cfg:  cfg,
		csv:  filepath.Join(cfg.workDir, "rows.csv"),
		col:  filepath.Join(cfg.workDir, "rows.col"),
		cmds: cmds,
		res:  res,
		chk:  &checker{},
	}
	if err := writeCSV(c.csv, d); err != nil {
		return err
	}
	res.Params["rows"] = w.rows
	res.Params["partition_rows"] = partRows
	res.Params["commands_per_round"] = (1 + colRepeats) * len(cmds)
	if cfg.trace != 1 {
		if err := c.endToEnd(); err != nil {
			return err
		}
	} else if _, err := c.convert(); err != nil {
		return err
	}
	if cfg.trace != 0 {
		if err := c.layers(); err != nil {
			return err
		}
	}
	res.count(c.chk)
	return nil
}

// convert writes the column file from the CSV and returns its wall time.
func (c *cliBatch) convert() (time.Duration, error) {
	run, err := runRedi(c.cfg.redi, "convert", "-schema", schemaSpec, "-partrows", strconv.Itoa(partRows), "-out", c.col, c.csv)
	return run.wall, err
}

// run runs cmd over file, optionally writing a Chrome trace.
func (c *cliBatch) run(cmd []string, file, tracePath string) (cliRun, error) {
	args := append([]string{cmd[0], "-schema", schemaSpec}, cmd[1:]...)
	if tracePath != "" {
		args = append(args, "-trace", tracePath)
	}
	return runRedi(c.cfg.redi, append(args, file)...)
}

// same checks that cmd printed the same and exited alike over the CSV and
// over the column file.
func (c *cliBatch) same(cmd []string, csvRun, colRun cliRun) {
	c.chk.check(csvRun.stdout == colRun.stdout && csvRun.exit == colRun.exit,
		"redi %s: CSV and column-file outputs differ", strings.Join(cmd, " "))
}

// colRepeats is how many times a round runs each command over the column
// file. Those commands take a tenth of the time of the same command over
// the CSV, so the repeats give the latency, which they set, more samples.
const colRepeats = 3

// endToEnd runs rounds for the run's time. A round converts the CSV to a
// column file, timing the conversion as set-up, then runs each of the
// round's commands once over the CSV and colRepeats times over the column
// file. Latency is that of the column-file commands, the interactive
// path; throughput counts every command of the round.
func (c *cliBatch) endToEnd() error {
	var rt roundTally
	err := rounds(c.cfg.seconds, func() error {
		conv, err := c.convert()
		if err != nil {
			return err
		}
		var lat []float64
		peak := 0.0
		t0 := time.Now()
		for _, cmd := range c.cmds {
			csvRun, err := c.run(cmd, c.csv, "")
			if err != nil {
				return err
			}
			peak = max(peak, csvRun.rssMB)
			for r := 0; r < colRepeats; r++ {
				colRun, err := c.run(cmd, c.col, "")
				if err != nil {
					return err
				}
				c.same(cmd, csvRun, colRun)
				lat = append(lat, float64(colRun.wall)/float64(time.Millisecond))
				peak = max(peak, colRun.rssMB)
			}
		}
		rt.add(conv.Seconds(), lat, float64((1+colRepeats)*len(c.cmds))/time.Since(t0).Seconds(), peak)
		return nil
	})
	if err != nil {
		return err
	}
	rt.report(c.res)
	return nil
}

// layers runs a round's commands with -trace and sums self time per
// span. cli.outside_ms.<input> is process wall time outside the root span:
// start-up and loading the input.
func (c *cliBatch) layers() error {
	lt := layerTally{}
	csvTrace, colTrace := filepath.Join(c.cfg.workDir, "trace-csv.json"), filepath.Join(c.cfg.workDir, "trace-col.json")
	for _, cmd := range c.cmds {
		a, err := c.run(cmd, c.csv, csvTrace)
		if err != nil {
			return err
		}
		b, err := c.run(cmd, c.col, colTrace)
		if err != nil {
			return err
		}
		c.same(cmd, a, b)
		for _, x := range []struct {
			kind, path string
			run        cliRun
		}{{"csv", csvTrace, a}, {"col", colTrace, b}} {
			data, err := os.ReadFile(x.path)
			if err != nil {
				return err
			}
			root, err := chromeTree(data)
			if err != nil {
				return err
			}
			lt.addSpan("cli."+root.Name, root, "cli.")
			lt["cli.outside_ms."+x.kind] += float64(x.run.wall)/float64(time.Millisecond) - float64(root.DurUS)/1000
		}
	}
	c.res.layers(lt)
	return nil
}
