package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"flowdiff"
	"flowdiff/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 50}, {39, 50}, {40, 75}, {100, 90}, {250, 96}, {999, 98}, {1000, 99}, {100000, 99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && c.n*(100-p) < 1000 {
			t.Errorf("tailPercentile(%d) = %d leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("percentile(50) = %v, want 3", got)
	}
	if got := percentile(xs, 99); got != 5 {
		t.Errorf("percentile(99) = %v, want 5", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := &tracer{}
	ms := time.Millisecond
	tr.spans = []span{
		{ID: 0, Parent: noSpan, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "build", Start: 10 * ms, End: 60 * ms},
		// Two overlapping children of build count once where they overlap.
		{ID: 2, Parent: 1, Name: "decode", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "decode", Start: 20 * ms, End: 40 * ms},
	}
	self := tr.selfTimes()[0]
	want := map[string]time.Duration{"pass": 50 * ms, "build": 20 * ms, "decode": 40 * ms}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
}

// Each checker must reject a deliberately wrong output and accept the
// right one.
func TestCheckersRejectWrongOutputs(t *testing.T) {
	truth := "link:sw1<->sw4"
	right := flowdiff.Report{Suspects: []flowdiff.SuspectScore{{Component: truth}, {Component: "sw1"}}}
	second := flowdiff.Report{Suspects: []flowdiff.SuspectScore{{Component: "sw1"}, {Component: truth}}}
	if checkTruthFirst(right, truth) != nil || checkTruthFirst(second, truth) == nil {
		t.Error("checkTruthFirst does not reject the truth ranked second")
	}

	changed := flowdiff.Report{Unknown: []flowdiff.Change{{Description: "switch adjacency sw1->sw5 missing"}}}
	if checkNoChange(flowdiff.Report{}) != nil || checkNoChange(changed) == nil {
		t.Error("checkNoChange does not reject a change in a self-diff")
	}

	gap := []serve.ReportSummary{{Seq: 1}, {Seq: 3}}
	if checkSeqs([]serve.ReportSummary{{Seq: 1}, {Seq: 2}}) != nil || checkSeqs(gap) == nil {
		t.Error("checkSeqs does not reject a gap in report sequence numbers")
	}

	if checkCount("q", 41, 41) != nil || checkCount("q", 40, 41) == nil || checkCount("q", 42, 41) == nil {
		t.Error("checkCount does not reject an event count off by one")
	}

	hosts := map[string]bool{"S1": true, "S21": true}
	inSet := flowdiff.Report{Unknown: []flowdiff.Change{{Components: []string{"S21", "S1"}}}}
	outOfSet := flowdiff.Report{Unknown: []flowdiff.Change{{Components: []string{"S21", "S1"}}, {Components: []string{"S12", "S8"}}}}
	if _, bad := outOfSetChange(inSet, hosts); bad {
		t.Error("outOfSetChange flags a change naming a queried host")
	}
	if _, bad := outOfSetChange(outOfSet, hosts); !bad {
		t.Error("outOfSetChange does not reject an out-of-set change in a narrowed report")
	}

	served, err := json.Marshal(right)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), served...)
	flipped[len(flipped)/2] ^= 1
	if checkSameBytes("report", served, served) != nil || checkSameBytes("report", flipped, served) == nil {
		t.Error("checkSameBytes does not reject one differing byte in a served report")
	}

	w := time.Minute
	grid := []serve.ReportSummary{{Seq: 1, From: 10 * w, To: 11 * w}, {Seq: 2, From: 11 * w, To: 11*w + 30*time.Second}}
	skewed := []serve.ReportSummary{{Seq: 1, From: 10 * w, To: 11 * w}, {Seq: 2, From: 11*w + time.Second, To: 12 * w}}
	if checkTiling(grid, 10*w, w) != nil || checkTiling(skewed, 10*w, w) == nil {
		t.Error("checkTiling does not reject a window off the grid")
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, m := range def.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range def.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// TestSmallRuns runs every workload at a small size, untraced and
// traced: every check must hold, the narrowed archive queries must be
// exactly the failed operations, and each mode must print exactly the
// metrics BENCHMARK.json declares for it.
func TestSmallRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates captures")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, name := range []string{"batch-localize", "archive-windows", "serve-stream"} {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload:  name,
				seed:      3,
				seconds:   time.Nanosecond,
				trace:     traced,
				capture:   3 * time.Minute,
				setupReps: 1,
				scratch:   t.TempDir(),
			}
			var tr *tracer
			want := endToEnd
			if traced {
				tr = newTracer()
				want = perLayer
			}
			o, err := workloads[name](cfg, tr)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !traced {
				o.set("peak_rss_mib", "MiB", peakRSSMiB())
			}
			for _, w := range o.wrong {
				t.Errorf("%s traced=%v: %s", name, traced, w)
			}
			if o.attempted == 0 {
				t.Errorf("%s traced=%v: no operation attempted", name, traced)
			}
			wantFailed := int64(0)
			if name == "archive-windows" {
				wantFailed = o.attempted / 2
			}
			if o.failed != wantFailed || o.failedBy[narrowedCheck] != wantFailed {
				t.Errorf("%s traced=%v: failed %d of %d (%v); want %d narrowed queries", name, traced, o.failed, o.attempted, o.failedBy, wantFailed)
			}
			got := sortedKeys(o.metrics)
			if len(got) != len(want) {
				t.Fatalf("%s traced=%v: metrics %v, want %v", name, traced, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s traced=%v: metrics %v, want %v", name, traced, got, want)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if o.metrics[m].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, o.metrics[m].Value)
					}
				}
			}
		}
	}
}
