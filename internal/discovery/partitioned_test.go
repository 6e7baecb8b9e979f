package discovery

import (
	"fmt"
	"reflect"
	"testing"

	"redi/internal/dataset"
	"redi/internal/rng"
)

// TestDiscoverFeaturesOverPartitionedTables: feature search over a candidate
// table rebuilt row by row from a partitioned view ranks identically to the
// in-memory table the view covers.
func TestDiscoverFeaturesOverPartitionedTables(t *testing.T) {
	r := rng.New(31)
	q := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "key", Kind: dataset.Categorical},
		dataset.Attribute{Name: "grp", Kind: dataset.Categorical},
		dataset.Attribute{Name: "target", Kind: dataset.Numeric},
	))
	feat := dataset.New(dataset.NewSchema(
		dataset.Attribute{Name: "key", Kind: dataset.Categorical},
		dataset.Attribute{Name: "f_sig", Kind: dataset.Numeric},
		dataset.Attribute{Name: "f_noise", Kind: dataset.Numeric},
	))
	for i := 0; i < 600; i++ {
		key := fmt.Sprintf("k%04d", i)
		grp := "a"
		if i%3 == 0 {
			grp = "b"
		}
		signal := r.Normal(0, 1)
		q.MustAppendRow(dataset.Cat(key), dataset.Cat(grp), dataset.Num(signal+r.Normal(0, 0.2)))
		feat.MustAppendRow(dataset.Cat(key), dataset.Num(signal+r.Normal(0, 0.2)), dataset.Num(r.Normal(0, 1)))
	}
	fq := FeatureQuery{Query: q, JoinAttr: "key", TargetAttr: "target", Sensitive: []string{"grp"}}

	mem := NewRepository()
	if err := mem.Add("feat", feat); err != nil {
		t.Fatal(err)
	}
	want, err := DiscoverFeatures(mem, fq)
	if err != nil {
		t.Fatal(err)
	}
	pd := feat.Partitions(128)
	rebuilt := dataset.New(pd.Schema())
	rows := make([]int, pd.NumRows())
	for i := range rows {
		rows[i] = i
	}
	if err := pd.AppendRowsTo(rebuilt, rows); err != nil {
		t.Fatal(err)
	}
	part := NewRepository()
	if err := part.Add("feat", rebuilt); err != nil {
		t.Fatal(err)
	}
	got, err := DiscoverFeatures(part, fq)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hits %v, want %v", got, want)
	}
	if len(want) == 0 || want[0].Column.Column != "f_sig" {
		t.Fatalf("expected f_sig ranked first: %v", want)
	}
}
