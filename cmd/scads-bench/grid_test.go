package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scads/internal/expgrid"
)

// TestCommittedGridParses pins the committed experiments.json to the
// registry: every row must name a registered experiment and override
// only declared parameters. A rename or a typo in either place fails
// here, not in CI's bench-gate.
func TestCommittedGridParses(t *testing.T) {
	data, err := os.ReadFile("../../experiments.json")
	if err != nil {
		t.Fatalf("read committed grid: %v", err)
	}
	g, err := expgrid.ParseGrid(data, gridRegistry())
	if err != nil {
		t.Fatalf("committed experiments.json invalid: %v", err)
	}
	if want := len(gridRegistry().List()) + 2; len(g.Rows) < want {
		t.Fatalf("committed grid has %d rows, want >= %d (one per experiment e1..e18 plus workload variants)", len(g.Rows), want)
	}
	variants := 0
	for _, row := range g.Rows {
		if len(row.Params) > 0 {
			variants++
		}
	}
	if variants < 2 {
		t.Fatalf("committed grid has %d override rows, want >= 2 (scenario diversity)", variants)
	}
}

// TestGridRegistryDefaultsValidate checks that a grid row with no
// overrides resolves every registered experiment's parameters to its
// declared defaults.
func TestGridRegistryDefaultsValidate(t *testing.T) {
	for _, exp := range gridRegistry().List() {
		p := expgrid.NewParams(exp.Params, nil, 1, 0)
		for _, spec := range exp.Params {
			if got := p.Get(spec.Name); got != spec.Default {
				t.Errorf("%s: default %s = %g, want %g", exp.ID, spec.Name, got, spec.Default)
			}
		}
	}
}

// TestGroupedSummaryRoundTrip writes a grouped BENCH_<row>.json and
// reads it back through the same decoder -compare uses, verifying the
// mean/std/repeats fields survive the trip.
func TestGroupedSummaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	row := expgrid.RowResult{
		Row: expgrid.Row{ID: "fake", Experiment: "e12"},
		Repeats: []expgrid.RepeatResult{
			{Repeat: 0, Metrics: expgrid.Metrics{"m": 10}},
			{Repeat: 1, Metrics: expgrid.Metrics{"m": 14}},
		},
	}
	row.Grouped = expgrid.Aggregate([]expgrid.Metrics{{"m": 10}, {"m": 14}})
	writeGroupedBenchSummary(dir, row)
	s, err := readSummary(dir + "/BENCH_fake.json")
	if err != nil {
		t.Fatalf("readSummary: %v", err)
	}
	if s.Repeats != 2 {
		t.Fatalf("repeats = %d, want 2", s.Repeats)
	}
	m := s.Metrics["m"]
	if m.Value != 12 || m.Std == 0 {
		t.Fatalf("grouped metric = %+v, want mean 12 with non-zero std", m)
	}
	if m.Direction != "" || m.Tolerance != 0 {
		t.Fatalf("run summary must not carry baseline policy: %+v", m)
	}
}

// TestPaperRowsMeetBaselines runs every paper-figure row (e2..e11;
// e1's 20s simulation is gated only by the bench-gate grid run)
// through its Run hook at the row's committed seed and checks each
// result against the row's committed baseline with the same policy
// -compare applies, so a broken paper claim fails go test.
func TestPaperRowsMeetBaselines(t *testing.T) {
	data, err := os.ReadFile("../../experiments.json")
	if err != nil {
		t.Fatalf("read committed grid: %v", err)
	}
	reg := gridRegistry()
	g, err := expgrid.ParseGrid(data, reg)
	if err != nil {
		t.Fatalf("committed experiments.json invalid: %v", err)
	}
	rows := make(map[string]expgrid.Row, len(g.Rows))
	for _, row := range g.Rows {
		rows[row.ID] = row
	}
	for _, id := range strings.Fields("e2 e3 e4a e4b e4c e4d e4e e5 e6 e7 e8 e9 e10 e11") {
		row, ok := rows[id]
		if !ok {
			t.Errorf("%s: no row in experiments.json", id)
			continue
		}
		base, err := readSummary(filepath.Join("baselines", "BENCH_"+id+".json"))
		if err != nil {
			t.Errorf("%s: committed baseline: %v", id, err)
			continue
		}
		exp, _ := reg.Lookup(row.Experiment)
		m, err := exp.Run(expgrid.NewParams(exp.Params, row.Params, row.Seed, 0))
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		for name, bm := range base.Metrics {
			got, ok := m[name]
			if !ok {
				t.Errorf("%s: baseline metric %s missing from the run", id, name)
				continue
			}
			if ok, bound := withinTolerance(bm, got); !ok {
				t.Errorf("%s: %s = %g, outside the %s bound %g", id, name, got, bm.Direction, bound)
			}
		}
	}
}
