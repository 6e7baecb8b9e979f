package serve

import (
	"flag"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redi/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden trace files")

// checkGolden compares a deterministic span-tree rendering against
// testdata/<name>.golden byte for byte; -update rewrites the file.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestStoreAuditTraceGolden pins the span tree of resident audits before
// and after an ingest.
func TestStoreAuditTraceGolden(t *testing.T) {
	s, err := NewStore(makeBatch(31, 400), StoreConfig{Threshold: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	root := trace.New("store")
	s.Audit(4, 0.05, 2, root.Child("audit"))
	s.Audit(30, 0.5, 2, root.Child("audit"))
	if _, _, err := s.Ingest(makeBatch(32, 60), nil); err != nil {
		t.Fatal(err)
	}
	s.Audit(4, 0.05, 2, root.Child("audit"))
	for _, c := range root.Children() {
		c.End()
	}
	root.End()
	checkGolden(t, "store_audit_trace", root.DetString())
}

// TestQueryTraceGolden pins the span trees of /query requests. A count and
// a select that pin both sensitive attributes visit only their group's
// rows, and a count whose conjunction holds nothing but the pins visits
// none; a count that pins one attribute scans every row.
func TestQueryTraceGolden(t *testing.T) {
	svc, err := NewService(makeBatch(41, 300), Config{
		StoreConfig: StoreConfig{Threshold: 4, Workers: 2},
		TraceBuffer: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	for _, q := range []string{
		"e=" + url.QueryEscape("race = 'black' and sex = 'F'"),
		"e=" + url.QueryEscape("sex = 'M' and race = 'white' and income > 50000"),
		"e=" + url.QueryEscape("race = 'white' and sex = 'F' and age < 40") + "&mode=select",
		"e=" + url.QueryEscape("race = 'black' and income > 50000"),
	} {
		if code, resp := doReq(t, svc, "GET", "/query?"+q, ""); code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, code, resp)
		}
	}
	var b strings.Builder
	for _, tr := range svc.Recorder().Traces() {
		b.WriteString(tr.Root().DetString())
	}
	checkGolden(t, "query_trace", b.String())
}
