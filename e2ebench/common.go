package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"flowdiff"
	"flowdiff/internal/faults"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/flowlog/colseg"
	"flowdiff/internal/obs"
)

// simulate runs one localization scenario with captures of the given
// length and returns the result and the scenario's ground truth.
func simulate(name string, seed int64, capture time.Duration) (*flowdiff.ScenarioResult, string, error) {
	for _, sc := range faults.LocalizationScenarios() {
		if sc.Name != name {
			continue
		}
		res, err := flowdiff.RunScenario(flowdiff.Scenario{
			Seed:        seed,
			Specs:       sc.Specs,
			Incast:      sc.Incast,
			Faults:      sc.Faults,
			BaselineDur: capture,
			FaultDur:    capture,
		})
		if err != nil {
			return nil, "", fmt.Errorf("simulating %s: %w", name, err)
		}
		return res, sc.Truth, nil
	}
	return nil, "", fmt.Errorf("no localization scenario %q", name)
}

// encode writes log as FDC1 with the default 30 s segments.
func encode(log *flowlog.Log) ([]byte, error) {
	var buf bytes.Buffer
	if err := colseg.Write(&buf, log, colseg.WriterOptions{}); err != nil {
		return nil, fmt.Errorf("encoding FDC1: %w", err)
	}
	return buf.Bytes(), nil
}

// decode reads a whole FDC1 capture.
func decode(ctx context.Context, data []byte) (*flowlog.Log, error) {
	r, err := colseg.NewReaderContext(ctx, bytes.NewReader(data), colseg.ReaderOptions{})
	if err != nil {
		return nil, fmt.Errorf("decoding FDC1: %w", err)
	}
	log, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("decoding FDC1: %w", err)
	}
	return log, nil
}

// repeatSetup runs set-up reps times and returns each run's duration;
// the last run's products are the ones the caller keeps. Each
// repetition is one "setup" root span when tracing.
//
// Every repetition, and the phase after the last, starts from a
// collected heap, so set-up time and peak memory do not depend on when
// the collector happened to run.
func repeatSetup(reps int, ls *layerStats, f func(root spanID) error) ([]time.Duration, error) {
	durs := make([]time.Duration, 0, reps)
	defer runtime.GC()
	for i := 0; i < reps; i++ {
		runtime.GC()
		var err error
		start := time.Now()
		ls.root("setup", func(root spanID) { err = f(root) })
		durs = append(durs, time.Since(start))
		if err != nil {
			return nil, err
		}
	}
	return durs, nil
}

// phase accumulates the timed phase: wall clock, covered events, each
// pass's events per second, and the Go heap's allocation and collection
// counts while timing ran.
type phase struct {
	wall    time.Duration
	events  int64
	rates   []float64
	alloc   uint64
	gcs     uint32
	gcPause time.Duration
	passes  int
}

// measure times one pass of the timed phase; f returns the events the
// pass covered. Each pass starts from a collected heap, so where the
// collector runs inside a pass repeats from pass to pass instead of
// drifting with the garbage earlier passes left.
func (p *phase) measure(f func() int64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := f()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	p.wall += d
	p.events += n
	p.rates = append(p.rates, float64(n)/d.Seconds())
	p.alloc += after.TotalAlloc - before.TotalAlloc
	p.gcs += after.NumGC - before.NumGC
	p.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	p.passes++
}

// endToEnd records the metrics every workload reports untraced.
// opLat holds the latencies of the operations that did not fail;
// reads are the read-back latencies.
func endToEnd(o *outcome, setup []time.Duration, p *phase, opLat, reads []time.Duration) {
	secs := make([]float64, len(setup))
	for i, d := range setup {
		secs[i] = d.Seconds()
	}
	o.set("setup_s", "s", median(secs))
	// The median pass, not the total, so a pass slowed by a neighbour
	// on a shared machine does not move the run's figure.
	o.set("events_per_s", "events/s", median(p.rates))
	op := durationsMS(opLat)
	o.set("op_p50_ms", "ms", median(op))
	o.set("op_tail_ms", "ms", percentile(op, tailPercentile(len(op))))
	o.set("read_p50_ms", "ms", median(durationsMS(reads)))
	o.set("alloc_b_per_event", "B/event", float64(p.alloc)/float64(p.events))
}

// layerStats gathers the traced run's per-root measurements: the
// tracer's spans, plus deltas of the program's own obs counters (and,
// for roots that ask for it, its stage-span totals) over each root.
type layerStats struct {
	tr  *tracer
	reg *obs.Registry
	// roots records every root span in order.
	roots []rootStats
}

type rootStats struct {
	id       spanID
	name     string
	counters map[string]int64
	// obsSpans holds the program's own stage-span totals, used for
	// layers the benchmark cannot wrap because the program calls them
	// internally (inside Monitor).
	obsSpans map[string]time.Duration
}

// newLayerStats returns nil when tr is nil: every method is a no-op on
// a nil receiver, so the untraced path runs the same code without
// recording anything.
func newLayerStats(tr *tracer) *layerStats {
	if tr == nil {
		return nil
	}
	return &layerStats{tr: tr, reg: obs.New()}
}

// ctx returns a context carrying the traced run's obs registry, or
// base unchanged when not tracing.
func (ls *layerStats) ctx(base context.Context) context.Context {
	if ls == nil {
		return base
	}
	return obs.WithRegistry(base, ls.reg)
}

// root runs f as one root span. Passes are named "pass", set-up
// repetitions "setup", and a replay inside the program "replay".
func (ls *layerStats) root(name string, f func(root spanID)) {
	if ls == nil {
		f(noSpan)
		return
	}
	before := ls.reg.Snapshot()
	id := ls.tr.start(noSpan, name)
	f(id)
	ls.tr.end(id)
	after := ls.reg.Snapshot()
	rs := rootStats{id: id, name: name, counters: make(map[string]int64), obsSpans: make(map[string]time.Duration)}
	for k, v := range after.Counters {
		rs.counters[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		rs.obsSpans[k] = time.Duration(h.SumNS - before.Histograms[k].SumNS)
	}
	ls.roots = append(ls.roots, rs)
}

// span runs f inside a child span when tracing, and plainly otherwise.
func (ls *layerStats) span(parent spanID, name string, f func(id spanID)) {
	if ls == nil {
		f(noSpan)
		return
	}
	ls.tr.do(parent, name, f)
}

// layerTimes maps each per-layer time metric to the benchmark span that
// measures it and to the program's own stage span used in "replay"
// roots, where the program makes the call itself.
var layerTimes = []struct{ metric, span, obsSpan string }{
	{"colseg.decode_ms", "colseg.decode", ""},
	{"colseg.encode_ms", "colseg.encode", ""},
	{"signature.extract_ms", "signature.extract", ""},
	{"signature.source_ms", "signature.source", ""},
	{"signature.app_ms", "signature.app", "span.signature.app"},
	{"signature.infra_ms", "signature.infra", "span.signature.infra"},
	{"signature.stability_ms", "signature.stability", "span.signature.stability"},
	{"appgroup.discover_ms", "appgroup.discover", ""},
	{"diff.compare_ms", "diff.compare", "span.diff.compare"},
	{"diagnose.ms", "diagnose", "span.diagnose.tally"},
}

// layerCounts maps each per-layer count metric to the program's obs
// counter it reads.
var layerCounts = []struct{ metric, unit, counter string }{
	{"colseg.bytes_decoded", "B", "colseg.bytes.decoded"},
	{"colseg.bytes_skipped", "B", "colseg.bytes.skipped"},
	{"colseg.events_filtered", "events", "colseg.events.filtered"},
	{"signature.occurrences", "count", "signature.occurrences"},
	{"appgroup.groups", "count", "signature.groups"},
	{"diff.changes", "count", "diff.changes"},
	{"diagnose.votes", "count", "diagnose.votes"},
}

// perLayer records every layer time and count metric: the median over
// passes of the per-pass value. A layer that does no work in a pass is
// taken from the replays instead (serve-stream's offline Monitor), and
// failing that from the set-up repetitions; a layer that does no work
// on the workload at all reads 0.
func (ls *layerStats) perLayer(o *outcome) {
	self := ls.tr.selfTimes()
	sample := func(value func(rs rootStats) float64) float64 {
		for _, kind := range []string{"pass", "replay", "setup"} {
			var vals []float64
			worked := false
			for _, rs := range ls.roots {
				if rs.name != kind {
					continue
				}
				v := value(rs)
				worked = worked || v != 0
				vals = append(vals, v)
			}
			if worked {
				return median(vals)
			}
		}
		return 0
	}
	for _, lt := range layerTimes {
		o.set(lt.metric, "ms", sample(func(rs rootStats) float64 {
			if d, ok := self[rs.id][lt.span]; ok {
				return ms(d)
			}
			if rs.name == "replay" && lt.obsSpan != "" {
				return ms(rs.obsSpans[lt.obsSpan])
			}
			return 0
		}))
	}
	for _, lc := range layerCounts {
		o.set(lc.metric, lc.unit, sample(func(rs rootStats) float64 {
			return float64(rs.counters[lc.counter])
		}))
	}
}

// runtimeLayer records the Go runtime's collections per pass of the
// timed phase and the traced operation's median latency (compare it
// with the untraced op_p50_ms for the tracing overhead).
func runtimeLayer(o *outcome, p *phase, opLat []time.Duration) {
	o.set("go.gc_cycles", "count", float64(p.gcs)/float64(p.passes))
	o.set("go.gc_pause_ms", "ms", ms(p.gcPause)/float64(p.passes))
	o.set("trace.op_p50_ms", "ms", median(durationsMS(opLat)))
}

// monitorServeLayer records the Monitor and service metrics; workloads
// that exercise neither report them as 0.
func monitorServeLayer(o *outcome, observeNSPerEvent, flushMS, saveMS, loadMS, reportBytes, queueMax float64) {
	o.set("monitor.observe_ns_per_event", "ns/event", observeNSPerEvent)
	o.set("monitor.flush_ms", "ms", flushMS)
	o.set("serve.store_save_ms", "ms", saveMS)
	o.set("serve.store_load_ms", "ms", loadMS)
	o.set("serve.report_bytes", "B", reportBytes)
	o.set("serve.queue_depth_max", "events", queueMax)
}
