package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redi/internal/rng"
	"redi/internal/synth"
)

// TestCmdServeReplay runs the serve command in replay mode twice over the
// same seed data and request log: the outputs must be byte-identical, and
// every replayed API request must succeed.
func TestCmdServeReplay(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(200), rng.New(5)).Data
	csvPath := writeTempCSV(t, d)
	logPath := filepath.Join(t.TempDir(), "replay.jsonl")
	log := strings.Join([]string{
		`{"method":"GET","path":"/stats"}`,
		`{"method":"GET","path":"/audit?threshold=3&maxnull=0.2"}`,
		`{"method":"GET","path":"/query?e=f0+%3E+0&mode=count"}`,
		`{"method":"POST","path":"/discovery","body":"{\"values\":[\"black\",\"white\"],\"threshold\":0.3}"}`,
	}, "\n") + "\n"
	if err := os.WriteFile(logPath, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func() string {
		return captureStdout(t, func() error {
			return cmdServe([]string{"-schema", popSchema, "-threshold", "3", "-replay", logPath, csvPath})
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay output differs:\n%s\n----\n%s", a, b)
	}
	for _, block := range []string{"## GET /stats\n200\n", "## GET /audit?threshold=3&maxnull=0.2\n200\n"} {
		if !strings.Contains(a, block) {
			t.Fatalf("missing %q in replay output:\n%s", block, a)
		}
	}
	if strings.Contains(a, "\n500\n") {
		t.Fatalf("5xx in replay output:\n%s", a)
	}
}

func TestCmdServeErrors(t *testing.T) {
	if err := cmdServe([]string{"-schema", popSchema}); err == nil {
		t.Fatal("missing input file accepted")
	}
	d := synth.Generate(synth.DefaultPopulation(20), rng.New(5)).Data
	csvPath := writeTempCSV(t, d)
	if err := cmdServe([]string{"-schema", "bad", "-replay", "x", csvPath}); err == nil {
		t.Fatal("bad schema accepted")
	}
	if err := cmdServe([]string{"-schema", popSchema, "-replay", "/nonexistent.jsonl", csvPath}); err == nil {
		t.Fatal("missing replay log accepted")
	}
}

// TestCmdMaxNullBound: audit and serve reject a NaN or negative -maxnull
// with an error naming the flag, and serve -maxnull 0 audits requests
// without a maxnull parameter at zero tolerance.
func TestCmdMaxNullBound(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(200), rng.New(5)).Data
	d = synth.InjectMissing(d, synth.MissingConfig{Attr: "f0", Rate: 0.01, Mech: synth.MCAR}, rng.New(6))
	csvPath := writeTempCSV(t, d)
	logPath := filepath.Join(t.TempDir(), "replay.jsonl")
	if err := os.WriteFile(logPath, []byte(`{"method":"GET","path":"/audit?threshold=3"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NaN", "-0.5", "-1"} {
		err := cmdAudit([]string{"-schema", popSchema, "-maxnull", bad, csvPath})
		if err == nil || !strings.Contains(err.Error(), "-maxnull "+bad) {
			t.Fatalf("audit -maxnull %s: err = %v, want a -maxnull error", bad, err)
		}
		err = cmdServe([]string{"-schema", popSchema, "-maxnull", bad, "-replay", logPath, csvPath})
		if err == nil || !strings.Contains(err.Error(), "-maxnull "+bad) {
			t.Fatalf("serve -maxnull %s: err = %v, want a -maxnull error", bad, err)
		}
	}
	out := captureStdout(t, func() error {
		return cmdServe([]string{"-schema", popSchema, "-maxnull", "0", "-replay", logPath, csvPath})
	})
	if !strings.Contains(out, "(max 0.0000)") {
		t.Fatalf("serve -maxnull 0 audited at another bound:\n%s", out)
	}
}

// TestCmdSensitiveAttrErrors: audit, tailor, serve and label reject a
// sensitive attribute that the schema lacks or holds as numeric with an
// error naming it, instead of panicking in a kernel.
func TestCmdSensitiveAttrErrors(t *testing.T) {
	const schema = "race:cat:sensitive,sex:cat:sensitive,age:num,income:num"
	seed := filepath.Join("..", "..", "internal", "serve", "testdata", "seed.csv")
	logPath := filepath.Join("..", "..", "internal", "serve", "testdata", "replay.jsonl")
	out := filepath.Join(t.TempDir(), "out.csv")
	for _, tc := range []struct{ sens, want string }{
		{"race,nosuch", `sensitive attribute "nosuch" is not in the schema`},
		{"race,age", `sensitive attribute "age" is numeric`},
	} {
		for name, run := range map[string]func() error{
			"audit": func() error {
				return cmdAudit([]string{"-schema", schema, "-sensitive", tc.sens, "-maxnull", "0.5", seed})
			},
			"tailor": func() error {
				return cmdTailor([]string{"-schema", schema, "-sensitive", tc.sens, "-need", "race=black:1", "-out", out, seed})
			},
			"serve": func() error {
				return cmdServe([]string{"-schema", schema, "-sensitive", tc.sens, "-replay", logPath, seed})
			},
		} {
			if err := run(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s -sensitive %s: err = %v, want %q", name, tc.sens, err, tc.want)
			}
		}
	}
	err := cmdLabel([]string{"-schema", "race:cat:sensitive,sex:cat:sensitive,age:num:sensitive,income:num", seed})
	if want := `sensitive attribute "age" is numeric`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("label with a numeric sensitive column: err = %v, want %q", err, want)
	}
}

// TestCmdThresholdBound: audit and serve reject a coverage -threshold below
// 1, which every pattern meets, with an error naming the flag; label, whose
// 0 means auto, rejects a negative one.
func TestCmdThresholdBound(t *testing.T) {
	d := synth.Generate(synth.DefaultPopulation(200), rng.New(5)).Data
	csvPath := writeTempCSV(t, d)
	logPath := filepath.Join(t.TempDir(), "replay.jsonl")
	if err := os.WriteFile(logPath, []byte(`{"method":"GET","path":"/audit"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"0", "-5"} {
		want := "-threshold " + bad + " must be at least 1"
		err := cmdAudit([]string{"-schema", popSchema, "-threshold", bad, "-maxnull", "0.5", csvPath})
		if err == nil || err.Error() != want {
			t.Fatalf("audit -threshold %s: err = %v, want %q", bad, err, want)
		}
		err = cmdServe([]string{"-schema", popSchema, "-threshold", bad, "-replay", logPath, csvPath})
		if err == nil || err.Error() != want {
			t.Fatalf("serve -threshold %s: err = %v, want %q", bad, err, want)
		}
	}
	want := "-threshold -5 must be at least 1, or 0 for auto"
	if err := cmdLabel([]string{"-schema", popSchema, "-threshold", "-5", csvPath}); err == nil || err.Error() != want {
		t.Fatalf("label -threshold -5: err = %v, want %q", err, want)
	}
}
