package coverage

import (
	"bytes"
	"testing"

	"redi/internal/obs"
)

// captureWalk runs one pattern-space walk against a fresh site registry and
// returns the canonical snapshot bytes.
func captureWalk(t *testing.T, run func(reg *obs.Registry)) []byte {
	t.Helper()
	reg := obs.NewRegistry()
	run(reg)
	b, err := reg.MarshalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMUPsObsWorkerInvariance pins the layer-local half of the obs
// determinism contract: per-shard walk tallies (DFS nodes, bitmap ANDs,
// parent checks, per-level MUPs) merge in shard order to totals that are
// bit-identical to the serial walk at any worker count.
func TestMUPsObsWorkerInvariance(t *testing.T) {
	data := skewedTable(t, 5, 3000, 5)
	attrs := data.Schema().Names()
	serial := captureWalk(t, func(reg *obs.Registry) {
		s := NewSpace(data, attrs, 25)
		s.Obs = reg
		s.MUPs(0, nil)
	})
	if !bytes.Contains(serial, []byte(`"coverage.dfs_nodes"`)) ||
		!bytes.Contains(serial, []byte(`"coverage.bitmap_ands"`)) ||
		!bytes.Contains(serial, []byte(`"coverage.mups"`)) {
		t.Fatalf("serial walk snapshot missing coverage counters:\n%s", serial)
	}
	for _, w := range []int{1, 2, 8} {
		got := captureWalk(t, func(reg *obs.Registry) {
			s := NewSpace(data, attrs, 25)
			s.Obs = reg
			s.MUPs(w, nil)
		})
		if !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d: walk counters diverged from serial\nserial: %s\ngot:    %s", w, serial, got)
		}
	}
}

// TestJoinSpaceObsWorkerInvariance covers the factorized join space, whose
// childSet owns two And branches, with the same snapshot-equality check.
func TestJoinSpaceObsWorkerInvariance(t *testing.T) {
	left, right := joinFixture(t, 3, 800)
	serial := captureWalk(t, func(reg *obs.Registry) {
		js := NewJoinSpace(left, "zip", []string{"race"}, right, "zipcode", []string{"region"}, 15)
		js.Obs = reg
		js.MUPs(0, nil)
	})
	if !bytes.Contains(serial, []byte(`"coverage.dfs_nodes"`)) {
		t.Fatalf("join-space snapshot missing coverage counters:\n%s", serial)
	}
	for _, w := range []int{1, 8} {
		got := captureWalk(t, func(reg *obs.Registry) {
			js := NewJoinSpace(left, "zip", []string{"race"}, right, "zipcode", []string{"region"}, 15)
			js.Obs = reg
			js.MUPs(w, nil)
		})
		if !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d: join-space walk counters diverged\nserial: %s\ngot:    %s", w, serial, got)
		}
	}
}
