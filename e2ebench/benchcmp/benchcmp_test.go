package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	got := quartiles(v)
	want := [3]float64{2.75, 5.5, 8.25}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("quartiles = %v, want %v", got, want)
		}
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{2, 1}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Fatalf("quartiles of two = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x + d
		}
		return out
	}
	cases := []struct {
		name     string
		nv       []float64
		won      int
		wantPref string
	}{
		{"clear gain", shift(-20), 10, "gain"},
		{"same", shift(0), 5, "no worse"},
		{"small regression within bound", shift(5), 0, "no worse"},
		{"regression beyond bound", shift(20), 0, "worse"},
		{"too noisy", []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, 5, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(lower, base, c.nv, c.won, 10); !strings.HasPrefix(got, c.wantPref) {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.wantPref)
		}
	}
}

func TestRefusesDifferentCPUWidth(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"op_p50_ms","unit":"ms","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, seed int64, cpus int) {
		rec := map[string]any{"num_cpu": cpus, "gomaxprocs": cpus, "workload": "w", "seed": seed, "attempted": 10, "failed": 0,
			"metrics": map[string]any{"op_p50_ms": map[string]any{"value": 100 + float64(seed), "unit": "ms"}}}
		data, _ := json.Marshal(rec)
		if err := os.MkdirAll(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, side, side+string(rune('0'+seed))+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for s := int64(1); s <= 3; s++ {
		write("old", s, 2)
		write("new", s, 2)
	}
	var out bytes.Buffer
	if err := run(&out, bench, filepath.Join(dir, "old"), filepath.Join(dir, "new")); err != nil {
		t.Fatalf("same width: %v", err)
	}
	if !strings.Contains(out.String(), "3/3") && !strings.Contains(out.String(), "0/3") {
		t.Errorf("output lacks pair counts:\n%s", out.String())
	}
	write("new", 4, 4)
	if err := run(&out, bench, filepath.Join(dir, "old"), filepath.Join(dir, "new")); err == nil {
		t.Fatal("compared records taken at different CPU widths")
	}
}
