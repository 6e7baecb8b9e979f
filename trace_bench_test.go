package redi

import (
	"net/http"
	"strings"
	"testing"

	"redi/internal/coverage"
	"redi/internal/serve"
	"redi/internal/trace"
)

// benchServeAuditTrace drives /audit through the full service stack at the
// given flight-recorder capacity; -1 disables tracing entirely, so nil
// spans flow through every layer. The Disabled/Enabled pair bounds the
// cost of recording a request trace, and Disabled vs the pre-tracing
// BenchmarkServeAuditP99 bounds the nil fast-path overhead (<2% is the
// acceptance bar).
func benchServeAuditTrace(b *testing.B, traceBuffer int) {
	svc, err := serve.NewService(serveBenchSeed(b), serve.Config{
		StoreConfig: serve.StoreConfig{Threshold: 25},
		TraceBuffer: traceBuffer,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	req, err := http.NewRequest("GET", "http://bench/audit?threshold=25&maxnull=0.2", strings.NewReader(""))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := &discardWriter{code: http.StatusOK, hdr: http.Header{}}
		svc.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("audit status %d: %s", w.code, w.buf.String())
		}
	}
}

func BenchmarkTraceServeAuditDisabled(b *testing.B) { benchServeAuditTrace(b, -1) }
func BenchmarkTraceServeAuditEnabled(b *testing.B)  { benchServeAuditTrace(b, 64) }

// benchTraceMUPs pins the per-walk tracing cost at the kernel level: with
// a nil span the one MUPs entry point pays only predictable pointer
// branches at walk granularity, not per DFS node, while a live span adds
// one child span allocation and a handful of attribute writes per walk.
func benchTraceMUPs(b *testing.B, live bool) {
	sp := coverage.NewSpace(serveBenchSeed(b), []string{"race", "sex"}, 25)
	sink := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var root *trace.Span
		if live {
			root = trace.New("bench")
		}
		sink += len(sp.MUPs(0, root))
		root.End()
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkTraceMUPsNilSpan(b *testing.B)  { benchTraceMUPs(b, false) }
func BenchmarkTraceMUPsLiveSpan(b *testing.B) { benchTraceMUPs(b, true) }
