package bench

import (
	"strings"
	"testing"
)

func TestAblationShapes(t *testing.T) {
	rows, err := Ablations(10, 12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Ablation{}
	for _, r := range rows {
		if r.Objective <= 0 {
			t.Errorf("%s: degenerate objective %g", r.Variant, r.Objective)
		}
		key := strings.SplitN(r.Variant, " ", 2)[0]
		byName[key] = r
	}
	full := byName["full"]
	// Removing candidate classes can only hurt (or tie) the optimum.
	if noMIR := byName["no"]; noMIR.Objective+1e-6 < full.Objective {
		t.Errorf("removing MIRs improved the plan: %g < %g", noMIR.Objective, full.Objective)
	}
	// χ≡1 removes broadcast penalties from the model: the reported
	// objective can only go down (costs are underestimated).
	if chi := byName["χ"]; chi.Objective > full.Objective+1e-6 {
		t.Errorf("χ≡1 raised the modeled cost: %g > %g", chi.Objective, full.Objective)
	}
	// Pricing materialization can only raise the objective.
	if mat := byName["materialization"]; mat.Objective+1e-6 < full.Objective {
		t.Errorf("pricing materialization lowered the cost: %g < %g", mat.Objective, full.Objective)
	}
	// Sharing beats no sharing.
	if indiv := byName["individual"]; full.Objective > indiv.Objective+1e-6 {
		t.Errorf("full MQO (%g) worse than individual (%g)", full.Objective, indiv.Objective)
	}
	if out := FormatAblations(rows); !strings.Contains(out, "variant") {
		t.Error("FormatAblations output incomplete")
	}
}
