package serve

import (
	"flag"
	"os"
	"path/filepath"
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
