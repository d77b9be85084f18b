package core

import (
	"sort"
	"strings"
	"testing"

	"clash/internal/ilp"
	"clash/internal/query"
)

// eagerNames renders every variable and row name of b's model the way
// buildModel wrote them into the model before names became lazy, in the
// order it added them: per order x, then its new steps' y, then its new
// decorations' z; choice rows, then per order its cost, feeding and link
// rows, then one onepart row per store in key order.
func eagerNames(b *builder) (vars, rows []string) {
	seen := map[string]bool{}
	stores := map[string]bool{}
	for _, d := range b.orders {
		vars = append(vars, "x:"+d.Key())
		for _, s := range d.Steps {
			if !seen["y:"+s.Key] {
				seen["y:"+s.Key] = true
				vars = append(vars, "y:"+s.Key)
			}
		}
		for i, e := range d.Elems {
			if i == 0 || e.Partition == (query.Attr{}) {
				continue
			}
			z := "z:" + e.MIR.Key() + "[" + e.Partition.String() + "]"
			if !seen[z] {
				seen[z] = true
				stores[e.MIR.Key()] = true
				vars = append(vars, z)
			}
		}
	}
	for _, q := range b.queries {
		for _, s := range sortedKeys(b.topGroups[q.Name]) {
			rows = append(rows, "choice:"+q.Name+"/"+s)
		}
	}
	for _, d := range b.orders {
		if d.Cost > 0 {
			rows = append(rows, "cost:"+d.Key())
		}
		for i, e := range d.Elems {
			if i > 0 && !e.MIR.IsBase() {
				for _, r := range e.MIR.Rels {
					rows = append(rows, "feed:"+e.MIR.Key()+"/"+r+"<-"+d.Key())
				}
			}
		}
		for i, e := range d.Elems {
			if i > 0 && e.Partition != (query.Attr{}) {
				rows = append(rows, "link:"+e.MIR.Key()+"["+e.Partition.String()+"]")
			}
		}
	}
	keys := make([]string, 0, len(stores))
	for k := range stores {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rows = append(rows, "onepart:"+k)
	}
	return vars, rows
}

// TestModelNamesReachTheReader pins that the names buildModel no longer
// writes still reach whoever reads them: every variable and row renders
// as it was written before, the unsolvable-model error lists the rows of
// every kind by name, and a violated row is reported by name.
func TestModelNamesReachTheReader(t *testing.T) {
	sched := controllerSchedule(t, 24, 1, 0)
	b := candidateBuilder(t, controllerOptions(NewReopt()), sched[0].queries, sched[0].est)
	b.buildModel()

	vars, rows := eagerNames(b)
	if len(vars) != b.model.NumVars() || len(rows) != b.model.NumCons() {
		t.Fatalf("model has %d variables and %d rows, the eager names %d and %d",
			b.model.NumVars(), b.model.NumCons(), len(vars), len(rows))
	}
	for v, want := range vars {
		if got := b.model.VarName(v); got != want {
			t.Fatalf("variable %d named %q, want %q", v, got, want)
		}
	}
	for c, want := range rows {
		if got := b.model.ConName(c); got != want {
			t.Fatalf("row %d named %q, want %q", c, got, want)
		}
	}

	msg := b.unsolvable(ilp.Infeasible).Error()
	for _, kind := range []string{"choice:", "cost:", "feed:", "link:", "onepart:", " x:", " y:", " z:"} {
		if !strings.Contains(msg, kind) {
			t.Errorf("the unsolvable-model error names no %q row or variable", kind)
		}
	}

	// Nothing chosen violates the first choice row first.
	err := b.model.Feasible(make([]float64, b.model.NumVars()), 1e-9)
	if want := `constraint "` + rows[0] + `" violated: 0 != 1`; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Feasible(0) = %v, want %s", err, want)
	}
}
