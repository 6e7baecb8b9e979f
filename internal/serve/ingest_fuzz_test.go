package serve

import (
	"net/http"
	"reflect"
	"testing"

	"redi/internal/core"
)

// FuzzIngest posts arbitrary bodies to /ingest on a fresh service seeded
// with nulls in a numeric column. Every response must be 200 or 4xx. After
// an accepted body the resident audit equals core.Audit over the snapshot
// at several (threshold, maxnull) pairs and worker counts; a rejected body
// leaves /stats and /audit byte-identical. An accepted body is posted a
// second time, so the groups it inserted then grow in place.
func FuzzIngest(f *testing.F) {
	sens := []string{"race", "sex"}
	f.Fuzz(func(t *testing.T, body string) {
		svc, err := NewService(makeBatch(41, 30), Config{
			StoreConfig: StoreConfig{Threshold: 2},
			TraceBuffer: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		state := func() string {
			_, stats := doReq(t, svc, "GET", "/stats", "")
			_, audit := doReq(t, svc, "GET", "/audit?threshold=3&maxnull=0.1", "")
			return stats + audit
		}
		for post := 0; post < 2; post++ {
			before := state()
			code, resp := doReq(t, svc, "POST", "/ingest", body)
			if code >= 400 && code < 500 {
				if after := state(); after != before {
					t.Fatalf("rejected ingest (%d %s) changed the resident state:\n%s\nvs\n%s", code, resp, before, after)
				}
				return
			}
			if code != http.StatusOK {
				t.Fatalf("ingest status %d: %s", code, resp)
			}
			s := svc.Store()
			for _, p := range []struct {
				threshold int
				maxNull   float64
			}{{1, 0}, {3, 0.05}, {10, 0.5}} {
				for _, w := range []int{0, 2} {
					got := s.Audit(p.threshold, p.maxNull, w, nil).Results
					want := core.Audit(s.snap.Partitions(0), []core.Requirement{
						core.CoverageRequirement{Attrs: sens, Threshold: p.threshold},
						core.CompletenessRequirement{Sensitive: sens, MaxNullRate: p.maxNull},
					}, w, nil).Results
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("post %d threshold %d maxnull %v workers %d:\n got %+v\nwant %+v", post, p.threshold, p.maxNull, w, got, want)
					}
				}
			}
		}
	})
}
