package serve

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzReadLog: ReadLog never panics on arbitrary bytes, every record it
// accepts carries a method and a path, and the accepted records,
// re-encoded as JSONL, read back equal. The committed corpus
// (testdata/fuzz/FuzzReadLog) holds blank and '#' lines, CRLF line ends,
// invalid JSON, records missing a method or a path, and a line longer than
// the scanner's initial 64 KiB buffer. Fuzz it with -fuzzminimizetime 1x:
// minimizing an input grown from the long line re-reads it once per byte
// removed, which stalls the search (on 2 vCPUs, 47k executions in 30 s
// with the default minimization, 428k in 15 s with it off).
func FuzzReadLog(f *testing.F) {
	f.Add([]byte(`{"method":"GET","path":"/stats"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var jsonl bytes.Buffer
		for i, rec := range recs {
			if rec.Method == "" || rec.Path == "" {
				t.Fatalf("record %d accepted without a method or a path: %+v", i, rec)
			}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			jsonl.Write(line)
			jsonl.WriteByte('\n')
		}
		again, err := ReadLog(&jsonl)
		if err != nil {
			t.Fatalf("re-encoded records do not read back: %v", err)
		}
		if !slices.Equal(again, recs) {
			t.Fatalf("re-encoded records read back as %+v, want %+v", again, recs)
		}
	})
}
