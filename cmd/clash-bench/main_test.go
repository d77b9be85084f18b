package main

import (
	"slices"
	"sort"
	"testing"
)

// TestParseFigures pins the -fig contract: exact names, the shorthands
// 7/8/9/all, and an error — not an empty run — for anything else. A
// first letter used to select every figure sharing it ("c" ran cluster,
// churn and chaos) and an unknown name printed nothing and exited 0.
// cluster, overload, longstate, skew, churn, chaos and simsweep are not
// figures: the package tests of internal/cluster, internal/runtime,
// internal/core and internal/sim check what those printers checked.
func TestParseFigures(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"7", []string{"7b", "7c", "7d"}},
		{"8", []string{"8a", "8b"}},
		{"9", []string{"9a", "9b", "9c", "9d", "9e", "9f"}},
		{"7b", []string{"7b"}},
		{"Ablation", []string{"ablation"}},
		{"ablation, 8a", []string{"8a", "ablation"}},
		{"all", figures},
	} {
		got, err := parseFigures(tc.spec)
		if err != nil {
			t.Errorf("-fig %q: %v", tc.spec, err)
			continue
		}
		var names []string
		for name := range got {
			names = append(names, name)
		}
		want := slices.Clone(tc.want)
		sort.Strings(names)
		sort.Strings(want)
		if !slices.Equal(names, want) {
			t.Errorf("-fig %q selects %v, want %v", tc.spec, names, want)
		}
	}
	for _, spec := range []string{"c", "s", "7x", "fig7", "", "7,", "longstat", "10", "cluster", "overload", "longstate", "skew",
		"churn", "chaos", "simsweep"} {
		if got, err := parseFigures(spec); err == nil {
			t.Errorf("-fig %q accepted (selects %v), want an error", spec, got)
		}
	}
}
