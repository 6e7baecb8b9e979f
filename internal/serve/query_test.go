package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"

	"redi/internal/dataset"
	"redi/internal/expr"
	"redi/internal/rng"
)

// planBatch generates rows whose sensitive values include nulls and values
// holding ';' and '=': race "x;sex=F" with sex "M" and race "x" with sex
// "F;sex=M" render the same group key. Batch k > 0 brings race "new<k>",
// so every ingest inserts groups and shifts the gids after them.
func planBatch(r *rng.RNG, k, n int) *dataset.Dataset {
	races := []string{"black", "white", "x", "x;sex=F", fmt.Sprintf("new%d", k)}
	sexes := []string{"F", "M", "F;sex=M"}
	d := dataset.New(testSchema())
	for i := 0; i < n; i++ {
		race := dataset.Cat(races[r.Intn(len(races))])
		sex := dataset.Cat(sexes[r.Intn(len(sexes))])
		switch r.Intn(10) {
		case 0:
			race = dataset.NullValue(dataset.Categorical)
		case 1:
			sex = dataset.NullValue(dataset.Categorical)
		}
		income := dataset.Num(float64(r.Intn(100)))
		if r.Intn(8) == 0 {
			income = dataset.NullValue(dataset.Numeric)
		}
		d.MustAppendRow(race, sex, dataset.Num(float64(18+r.Intn(60))), income)
	}
	return d
}

// quote renders s as an expression string literal.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// planPredicate draws a predicate and reports whether its shape pins both
// sensitive attributes. Pinned shapes put the pins in any order and
// nesting, with duplicate or contradictory pins, literals absent from the
// data and other conjuncts; the other shapes leave an attribute unpinned
// or pin it under not or or, or with in or !=.
func planPredicate(r *rng.RNG, ingests int) (string, bool) {
	value := func(attr string) string {
		races := []string{"black", "white", "x", "x;sex=F", "absent", fmt.Sprintf("new%d", r.Intn(ingests+2))}
		if attr == "sex" {
			return quote([]string{"F", "M", "F;sex=M", "absent"}[r.Intn(4)])
		}
		return quote(races[r.Intn(len(races))])
	}
	pin := func(attr string) string { return attr + " = " + value(attr) }
	others := []string{
		"age > 40",
		"income between 20 and 70",
		"income is null",
		"race in ('black', 'x')",
		"not (sex = 'M')",
		"(age < 30 or income > 80)",
		"sex is not null",
	}
	conj := []string{pin("race"), pin("sex")}
	if r.Intn(4) == 0 {
		conj = append(conj, pin([]string{"race", "sex"}[r.Intn(2)])) // duplicate or contradictory
	}
	for n := r.Intn(3); n > 0; n-- {
		conj = append(conj, others[r.Intn(len(others))])
	}
	r.Shuffle(len(conj), func(i, j int) { conj[i], conj[j] = conj[j], conj[i] })
	if r.Intn(3) == 0 && len(conj) > 2 {
		conj = append([]string{"(" + conj[0] + " and " + conj[1] + ")"}, conj[2:]...)
	}
	pinned := strings.Join(conj, " and ")
	switch r.Intn(10) {
	case 0:
		return pin("race") + " and " + others[r.Intn(len(others))], false
	case 1:
		return "not (" + pin("race") + ") and " + pin("sex"), false
	case 2:
		return pinned + " or age > 70", false
	case 3:
		return "race in (" + value("race") + ") and " + pin("sex"), false
	case 4:
		return "race != " + value("race") + " and " + pin("sex"), false
	}
	return pinned, true
}

// TestQueryGroupPlan is the group plan's differential gate. After each of
// several ingests that insert groups, random pinned conjunctions and
// shapes that must not take the plan are evaluated through the plan, the
// partition driver and the interpreter over the same snapshot, at worker
// budgets 1, 2 and 8: all must select the same rows, and every service,
// one per budget, must serve them as count and select.
func TestQueryGroupPlan(t *testing.T) {
	r := rng.New(5)
	seed := planBatch(r, 0, 300)
	budgets := []int{1, 2, 8}
	svcs := make([]*Service, len(budgets))
	for i, w := range budgets {
		svcs[i] = newTestService(t, seed.Clone(), w)
	}
	planned, unplanned, hits := 0, 0, 0
	for ingest := 0; ingest <= 6; ingest++ {
		if ingest > 0 {
			body, err := json.Marshal(ingestRequest{CSV: csvOf(t, planBatch(r, ingest, 40+7*ingest))})
			if err != nil {
				t.Fatal(err)
			}
			for _, svc := range svcs {
				if code, resp := doReq(t, svc, "POST", "/ingest", string(body)); code != http.StatusOK {
					t.Fatalf("ingest %d: status %d: %s", ingest, code, resp)
				}
			}
		}
		for q := 0; q < 40; q++ {
			src, pins := planPredicate(r, ingest)
			snap, groups := svcs[0].store.View()
			p, err := expr.CompilePredicate(src, snap.Schema())
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want := []int{}
			for row := 0; row < snap.NumRows(); row++ {
				if p.Match(snap, row) {
					want = append(want, row)
				}
			}
			pp, err := expr.Compile(src, snap.Partitions(0))
			if err != nil {
				t.Fatal(err)
			}
			plan := pp.PlanGroup(groups)
			if (plan != nil) != pins {
				t.Fatalf("ingest %d: %s: planned %t, pins both attributes %t", ingest, src, plan != nil, pins)
			}
			if plan != nil {
				planned++
				if len(want) > 0 {
					hits++
				}
			} else {
				unplanned++
			}
			for _, w := range budgets {
				if got := pp.SelectIndices(w, nil); !slices.Equal(got, want) || pp.Count(w, nil) != len(want) {
					t.Fatalf("ingest %d workers %d: %s: driver selects %v, interpreter %v", ingest, w, src, got, want)
				}
				if plan == nil {
					continue
				}
				if got := plan.SelectIndices(w, nil); !slices.Equal(got, want) || plan.Count(w, nil) != len(want) {
					t.Fatalf("ingest %d workers %d: %s: group plan selects %v (count %d), interpreter %v", ingest, w, src, got, plan.Count(w, nil), want)
				}
			}
			wantCount := fmt.Sprintf("{\"count\":%d}\n", len(want))
			sel, err := json.Marshal(map[string]string{"csv": csvOf(t, snap.Gather(want))})
			if err != nil {
				t.Fatal(err)
			}
			path := "/query?e=" + url.QueryEscape(src)
			for i, svc := range svcs {
				if _, got := doReq(t, svc, "GET", path, ""); got != wantCount {
					t.Fatalf("ingest %d workers %d: %s: served %s, want %s", ingest, budgets[i], src, got, wantCount)
				}
				if _, got := doReq(t, svc, "GET", path+"&mode=select", ""); got != string(sel)+"\n" {
					t.Fatalf("ingest %d workers %d: %s: select differs from the interpreter's rows", ingest, budgets[i], src)
				}
			}
		}
	}
	if planned < 100 || hits < 30 || unplanned < 50 {
		t.Fatalf("%d planned predicates (%d matching rows) and %d unplanned: the draw misses a case", planned, hits, unplanned)
	}
}
