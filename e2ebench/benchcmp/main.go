// Command benchcmp compares two sets of e2ebench run records, for
// example the parent commit's and a change's:
//
//	go run ./e2ebench/benchcmp -bench BENCHMARK.json OLD_DIR NEW_DIR
//
// Each directory holds the JSON records e2ebench writes (one per run,
// under .bench_build/e2ebench/records by default); traced runs are
// ignored. For every workload and end-to-end metric it prints each
// side's median and quartiles, the seed-matched pairs the new side won,
// and a verdict:
//
//   - gain: the new side won at least 9 of 10 pairs and its median is
//     better by more than the old side's interquartile spread;
//   - no worse: the new median is within the metric's bound of the old;
//   - unresolved: a side's spread is wider than the bound (unless every
//     new run beats every old run);
//   - worse: otherwise.
//
// It also prints each side's share of failed operations, and refuses
// sets taken at different num_cpu or GOMAXPROCS.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// runRecord is the part of an e2ebench record the comparison reads.
type runRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Attempted  int64  `json:"attempted"`
	Failed     int64  `json:"failed"`
	Metrics    map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// metricSpec is one end-to-end metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics and their bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-bench BENCHMARK.json] OLD_DIR NEW_DIR")
		os.Exit(2)
	}
	if err := run(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, bench, oldDir, newDir string) error {
	data, err := os.ReadFile(bench)
	if err != nil {
		return err
	}
	var def struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("reading %s: %w", bench, err)
	}
	oldRecs, err := loadRecords(oldDir)
	if err != nil {
		return err
	}
	newRecs, err := loadRecords(newDir)
	if err != nil {
		return err
	}
	if err := sameWidth(oldRecs, newRecs); err != nil {
		return err
	}
	return compare(w, def.EndToEnd, oldRecs, newRecs)
}

// loadRecords reads every untraced record in dir.
func loadRecords(dir string) ([]runRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []runRecord
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("reading %s: %w", p, err)
		}
		if !r.Trace {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("no untraced run records in %s", dir)
	}
	return recs, nil
}

// sameWidth refuses record sets taken at more than one CPU width.
func sameWidth(sets ...[]runRecord) error {
	var first *runRecord
	for _, set := range sets {
		for i := range set {
			r := &set[i]
			if first == nil {
				first = r
				continue
			}
			if r.NumCPU != first.NumCPU || r.GOMAXPROCS != first.GOMAXPROCS {
				return fmt.Errorf("records taken at num_cpu=%d GOMAXPROCS=%d and num_cpu=%d GOMAXPROCS=%d cannot be compared",
					first.NumCPU, first.GOMAXPROCS, r.NumCPU, r.GOMAXPROCS)
			}
		}
	}
	return nil
}

func compare(w io.Writer, specs []metricSpec, oldRecs, newRecs []runRecord) error {
	byWorkload := func(recs []runRecord) map[string][]runRecord {
		m := make(map[string][]runRecord)
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	oldBy, newBy := byWorkload(oldRecs), byWorkload(newRecs)
	var names []string
	for name := range oldBy {
		if _, ok := newBy[name]; ok {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return errors.New("the two sets share no workload")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, name := range names {
		o, n := oldBy[name], newBy[name]
		fmt.Fprintf(tw, "%s\told runs %d, failed %s\tnew runs %d, failed %s\n", name, len(o), failedShare(o), len(n), failedShare(n))
		fmt.Fprintln(tw, "  metric\told median [q1, q3]\tnew median [q1, q3]\tpairs won\tverdict")
		for _, spec := range specs {
			ov, nv := values(o, spec.Name), values(n, spec.Name)
			if len(ov) < 2 || len(nv) < 2 {
				fmt.Fprintf(tw, "  %s\t%d runs\t%d runs\t\tunresolved (too few runs)\n", spec.Name, len(ov), len(nv))
				continue
			}
			won, pairs := pairsWon(o, n, spec)
			oldSum, newSum := summarize(ov), summarize(nv)
			fmt.Fprintf(tw, "  %s (%s)\t%s\t%s\t%d/%d\t%s\n", spec.Name, spec.Unit, oldSum, newSum, won, pairs, verdict(spec, ov, nv, won, pairs))
		}
	}
	return tw.Flush()
}

// failedShare is failed operations over attempted, summed over runs.
func failedShare(recs []runRecord) string {
	var a, f int64
	for _, r := range recs {
		a += r.Attempted
		f += r.Failed
	}
	if a == 0 {
		return "0/0"
	}
	return fmt.Sprintf("%d/%d (%.4f)", f, a, float64(f)/float64(a))
}

func values(recs []runRecord, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// summary is one side's median and quartiles.
type summary struct{ q1, med, q3 float64 }

func summarize(v []float64) summary {
	q := quartiles(v)
	return summary{q1: q[0], med: q[1], q3: q[2]}
}

func (s summary) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.med, s.q1, s.q3)
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default exclusive method);
// v needs at least two values.
func quartiles(v []float64) [3]float64 {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}

// better reports whether a beats b in the metric's direction.
func better(spec metricSpec, a, b float64) bool {
	if spec.Better == "higher" {
		return a > b
	}
	return a < b
}

// pairsWon matches runs by seed and counts the pairs the new side won;
// ties count for neither side.
func pairsWon(oldRecs, newRecs []runRecord, spec metricSpec) (won, pairs int) {
	oldBySeed := make(map[int64]float64)
	for _, r := range oldRecs {
		if m, ok := r.Metrics[spec.Name]; ok {
			oldBySeed[r.Seed] = m.Value
		}
	}
	for _, r := range newRecs {
		m, ok := r.Metrics[spec.Name]
		ov, paired := oldBySeed[r.Seed]
		if !ok || !paired {
			continue
		}
		pairs++
		if better(spec, m.Value, ov) {
			won++
		}
	}
	return won, pairs
}

// verdict applies the comparison rule to one metric.
func verdict(spec metricSpec, ov, nv []float64, won, pairs int) string {
	o, n := summarize(ov), summarize(nv)
	gap := n.med - o.med
	if spec.Better != "higher" {
		gap = -gap
	}
	if pairs > 0 && won*10 >= 9*pairs && gap > o.q3-o.q1 {
		return "gain"
	}
	spread := func(s summary) float64 { return (s.q3 - s.q1) / math.Abs(s.med) }
	if spread(o) > spec.Bound || spread(n) > spec.Bound {
		if allBetter(spec, nv, ov) {
			return "no worse (every new run better)"
		}
		return "unresolved"
	}
	if gap < -spec.Bound*math.Abs(o.med) {
		return "worse"
	}
	return "no worse"
}

// allBetter reports whether every value of a beats every value of b.
func allBetter(spec metricSpec, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(spec, x, y) {
				return false
			}
		}
	}
	return true
}
