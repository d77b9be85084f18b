package topology

import (
	"strings"
	"testing"

	"clash/internal/query"
)

func sampleConfig() *Config {
	return &Config{
		Epoch: 3,
		Stores: map[StoreID]*Store{
			"R|": {ID: "R|", MIRKey: "R|", Label: "R", Rels: []string{"R"}, Parallelism: 2},
			"S|": {
				ID: "S|", MIRKey: "S|", Label: "S", Rels: []string{"S"},
				Partition: query.Attr{Rel: "S", Name: "a"}, Parallelism: 4,
			},
		},
		Spouts: map[string]*Spout{"R": {Relation: "R", Out: []Emission{
			{Edge: "store:R", To: "R|"},
			{Edge: "e1", To: "S|"},
		}}},
		Rules: map[StoreID]map[EdgeID][]Rule{
			"R|": {"store:R": {{Kind: StoreRule, Store: "R|", In: "store:R"}}},
			"S|": {"e1": {{Kind: ProbeRule, Store: "S|", In: "e1",
				Preds: []query.Predicate{{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}},
				Out:   []Emission{{Sink: "q1"}}}}},
		},
	}
}

func TestConfigBasics(t *testing.T) {
	c := sampleConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.TotalTasks() != 6 {
		t.Errorf("TotalTasks = %d, want 6", c.TotalTasks())
	}
	ids := c.StoreIDs()
	if len(ids) != 2 || ids[0] != "R|" {
		t.Errorf("StoreIDs = %v", ids)
	}
}

func TestStoreString(t *testing.T) {
	s := &Store{Label: "ST", Partition: query.Attr{Rel: "S", Name: "b"}, Parallelism: 4}
	if got := s.String(); got != "ST[S.b] x4" {
		t.Errorf("String = %q", got)
	}
	plain := &Store{Label: "R", Parallelism: 1}
	if got := plain.String(); got != "R x1" {
		t.Errorf("String = %q", got)
	}
	if !(&Store{Rels: []string{"R"}}).Base() || (&Store{Rels: []string{"R", "S"}}).Base() {
		t.Error("Base misreports")
	}
}

func TestValidateCatchesDanglingEmission(t *testing.T) {
	c := sampleConfig()
	c.Spouts["R"].Out = append(c.Spouts["R"].Out, Emission{Edge: "e9", To: "nope"})
	if err := c.Validate(); err == nil {
		t.Error("dangling emission not caught")
	}
}

func TestValidateCatchesEmptyEmission(t *testing.T) {
	c := sampleConfig()
	c.Rules["S|"]["e2"] = []Rule{{Kind: ProbeRule, Store: "S|", In: "e2",
		Preds: []query.Predicate{{Left: query.Attr{Rel: "R", Name: "a"}, Right: query.Attr{Rel: "S", Name: "a"}}},
		Out:   []Emission{{}}}}
	if err := c.Validate(); err == nil {
		t.Error("emission with neither target nor sink not caught")
	}
}

func TestValidateCatchesMisfiledRule(t *testing.T) {
	c := sampleConfig()
	c.Rules["S|"]["e9"] = []Rule{{Kind: StoreRule, Store: "S|", In: "e1"}}
	if err := c.Validate(); err == nil {
		t.Error("misfiled rule not caught")
	}
}

func TestValidateCatchesOrphanRuleset(t *testing.T) {
	c := sampleConfig()
	c.Rules["ghost"] = map[EdgeID][]Rule{"e": {{Kind: StoreRule, Store: "ghost", In: "e"}}}
	if err := c.Validate(); err == nil {
		t.Error("ruleset for unknown store not caught")
	}
}

func TestConfigString(t *testing.T) {
	s := sampleConfig().String()
	for _, want := range []string{"config(epoch=3", "store R x2", "store S[S.a] x4", "sink:q1", "spout R"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	// Deterministic.
	if s != sampleConfig().String() {
		t.Error("String not deterministic")
	}
}

func TestRuleKindString(t *testing.T) {
	if StoreRule.String() != "store" || ProbeRule.String() != "probe" {
		t.Error("RuleKind strings wrong")
	}
}
