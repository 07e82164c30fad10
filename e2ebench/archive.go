package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"time"

	"flowdiff"
	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/topology"
)

const archiveScenario = "equal-cost-link-drop"

// chainA is the host set of the scenario's chain A (client, web, app
// and db tiers), the set a narrowed query drills into.
var chainA = []topology.NodeID{"S21", "S1", "S2", "S6", "S7", "S11"}

// narrowedCheck names the known fault a host-narrowed query fails: the
// narrowed window is diffed against the un-narrowed baseline, so every
// group and adjacency outside the host set reads as gone.
const narrowedCheck = "narrowed-query-reports-out-of-set-change"

// archiveReadReps is how many times each query's events are read back
// after the timed phase for read_p50_ms.
const archiveReadReps = 10

// windowQuery is one RediagnoseWindow call: a grid window, whole or
// narrowed to chain A.
type windowQuery struct {
	from, to time.Duration
	hosts    []netip.Addr
	// events is the benchmark's own count of the capture's events the
	// query selects.
	events int
	// want is the first pass's report, which every later pass and the
	// replay must reproduce byte for byte.
	want []byte
}

// runArchive is the archive-windows workload: a Monitor holds the
// baseline, the problem capture sits in FDC1, and one operation
// re-diagnoses one window of it through the query-aware reader.
func runArchive(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ls := newLayerStats(tr)
	ctx := ls.ctx(context.Background())
	var (
		mon     *flowdiff.Monitor
		l2      *flowlog.Log
		fdc     []byte
		opts    flowdiff.Options
		truth   string
		hostIDs map[string]bool
		hosts   []netip.Addr
	)
	setup, err := repeatSetup(cfg.setupReps, ls, func(root spanID) error {
		res, t, err := simulate(archiveScenario, cfg.seed, cfg.capture)
		if err != nil {
			return err
		}
		opts, truth, l2 = res.Options(), t, res.L2
		if mon, err = flowdiff.NewMonitor(context.Background(), res.L1, window, nil, flowdiff.Thresholds{}, opts); err != nil {
			return err
		}
		ls.span(root, "colseg.encode", func(spanID) { fdc, err = encode(res.L2) })
		if err != nil {
			return err
		}
		hostIDs, hosts = map[string]bool{}, nil
		for _, id := range chainA {
			n, ok := res.Topo.Node(id)
			if !ok {
				return fmt.Errorf("lab topology has no host %s", id)
			}
			hostIDs[string(id)] = true
			hosts = append(hosts, n.Addr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	queries := archiveQueries(mon.Baseline().Log.End, l2, hosts)
	if tr != nil {
		// The traced replay must reproduce RediagnoseWindow's reports.
		for i := range queries {
			q := &queries[i]
			mr, err := mon.RediagnoseWindow(context.Background(), bytes.NewReader(fdc), q.from, q.to, q.hosts)
			if err != nil {
				return nil, err
			}
			if q.want, err = json.Marshal(mr.Report); err != nil {
				return nil, err
			}
		}
	}

	var p phase
	var lat []time.Duration
	for p.wall < cfg.seconds {
		reps := make([]flowdiff.Report, len(queries))
		errs := make([]error, len(queries))
		ls.root("pass", func(root spanID) {
			p.measure(func() int64 {
				var covered int64
				for i, q := range queries {
					start := time.Now()
					if tr == nil {
						var mr *flowdiff.MonitorReport
						if mr, errs[i] = mon.RediagnoseWindow(ctx, bytes.NewReader(fdc), q.from, q.to, q.hosts); errs[i] == nil {
							reps[i] = mr.Report
						}
					} else {
						reps[i], errs[i] = tracedQuery(ctx, ls, root, o, mon, fdc, q, opts)
					}
					// Narrowed queries fail (see narrowedCheck), and
					// latency counts only operations that did not.
					if q.hosts == nil {
						lat = append(lat, time.Since(start))
					}
					covered += int64(q.events)
				}
				return covered
			})
		})
		for i := range queries {
			q := &queries[i]
			o.attempted++
			if errs[i] != nil {
				o.fail("query-error", fmt.Sprintf("query [%v, %v): %v", q.from, q.to, errs[i]))
				continue
			}
			got, err := json.Marshal(reps[i])
			if err != nil {
				return nil, err
			}
			if q.want == nil {
				q.want = got
			} else if err := checkSameBytes(fmt.Sprintf("repeated report of [%v, %v)", q.from, q.to), got, q.want); err != nil {
				o.wrongf("%v", err)
			}
			if q.hosts != nil {
				if c, bad := outOfSetChange(reps[i], hostIDs); bad {
					o.fail(narrowedCheck, fmt.Sprintf("window [%v, %v): %q", q.from, q.to, c.Description))
				}
				continue
			}
			if err := checkTruthFirst(reps[i], truth); err != nil {
				o.wrongf("window [%v, %v): %v", q.from, q.to, err)
			}
		}
	}

	if tr != nil {
		ls.perLayer(o)
		runtimeLayer(o, &p, lat)
		monitorServeLayer(o, 0, 0, 0, 0, 0, 0)
		return o, nil
	}
	// Replay every query through the public streaming API with a
	// counting source: the build must see exactly the events the
	// benchmark counts and produce the report RediagnoseWindow did.
	for _, q := range queries {
		if q.want == nil {
			continue
		}
		rep, n, err := countedQuery(mon, fdc, q, opts)
		if err != nil {
			return nil, err
		}
		if err := checkCount(fmt.Sprintf("query [%v, %v) hosts=%d", q.from, q.to, len(q.hosts)), n, q.events); err != nil {
			o.wrongf("%v", err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		if err := checkSameBytes(fmt.Sprintf("replayed report of [%v, %v)", q.from, q.to), got, q.want); err != nil {
			o.wrongf("%v", err)
		}
	}
	// Reads start from a collected heap, as the timed phase does.
	runtime.GC()
	var reads []time.Duration
	for i := 0; i < archiveReadReps; i++ {
		for _, q := range queries {
			start := time.Now()
			n, err := drain(fdc, q)
			reads = append(reads, time.Since(start))
			if err != nil {
				return nil, err
			}
			if err := checkCount("window read", n, q.events); err != nil {
				o.wrongf("%v", err)
			}
		}
	}
	endToEnd(o, setup, &p, lat, reads)
	return o, nil
}

// archiveQueries lists one pass: every whole grid window of the
// capture after origin, each followed by the same window narrowed to
// hosts, with the benchmark's own event counts.
func archiveQueries(origin time.Duration, l2 *flowlog.Log, hosts []netip.Addr) []windowQuery {
	in := make(map[netip.Addr]bool, len(hosts))
	for _, h := range hosts {
		in[h] = true
	}
	var qs []windowQuery
	for from := origin; from < l2.End; from += window {
		whole := windowQuery{from: from, to: from + window}
		narrowed := windowQuery{from: from, to: from + window, hosts: hosts}
		for _, e := range l2.Events {
			if e.Time < from || e.Time >= from+window {
				continue
			}
			whole.events++
			if in[e.Flow.Src] || in[e.Flow.Dst] {
				narrowed.events++
			}
		}
		qs = append(qs, whole, narrowed)
	}
	return qs
}

// countingSource counts the events a source delivers.
type countingSource struct {
	flowdiff.EventSource
	n int
}

func (c *countingSource) Next() ([]flowlog.Event, error) {
	b, err := c.EventSource.Next()
	c.n += len(b)
	return b, err
}

// countedQuery is RediagnoseWindow through the public API with a
// counting source.
func countedQuery(mon *flowdiff.Monitor, fdc []byte, q windowQuery, opts flowdiff.Options) (flowdiff.Report, int, error) {
	ctx := context.Background()
	src, err := flowdiff.NewColumnarSourceOptions(ctx, bytes.NewReader(fdc), flowdiff.ColumnarOptions{
		Filter: flowdiff.ReadFilter{From: q.from, To: q.to, Hosts: q.hosts},
	})
	if err != nil {
		return flowdiff.Report{}, 0, err
	}
	cs := &countingSource{EventSource: src}
	cur, err := flowdiff.BuildSignaturesReader(ctx, cs, opts)
	if err != nil {
		return flowdiff.Report{}, 0, err
	}
	changes := flowdiff.Diff(ctx, mon.Baseline(), cur, flowdiff.Thresholds{})
	return flowdiff.Diagnose(ctx, changes, nil, opts), cs.n, nil
}

// drain reads q's events from the archive and only counts them: the
// read a drill-down pays before any modeling.
func drain(fdc []byte, q windowQuery) (int, error) {
	src, err := flowdiff.NewColumnarSourceOptions(context.Background(), bytes.NewReader(fdc), flowdiff.ColumnarOptions{
		Filter: flowdiff.ReadFilter{From: q.from, To: q.to, Hosts: q.hosts},
	})
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		b, err := src.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += len(b)
	}
}

// tracedSource times every decode call of the columnar reader as a
// child of the streaming build's span and counts delivered events.
type tracedSource struct {
	flowdiff.EventSource
	ls     *layerStats
	parent spanID
	n      int
}

func (s *tracedSource) Next() (b []flowlog.Event, err error) {
	s.ls.span(s.parent, "colseg.decode", func(spanID) { b, err = s.EventSource.Next() })
	s.n += len(b)
	return b, err
}

// tracedQuery is Monitor.RediagnoseWindow made of the calls it makes
// into each layer: the query-aware reader feeds the streaming build,
// whose products are diffed against the frozen baseline and diagnosed.
// The build must see exactly the events the benchmark counted.
func tracedQuery(ctx context.Context, ls *layerStats, root spanID, o *outcome, mon *flowdiff.Monitor, fdc []byte, q windowQuery, opts flowdiff.Options) (flowdiff.Report, error) {
	var src flowdiff.EventSource
	var err error
	ls.span(root, "colseg.decode", func(spanID) {
		src, err = flowdiff.NewColumnarSourceOptions(ctx, bytes.NewReader(fdc), flowdiff.ColumnarOptions{
			Filter: flowdiff.ReadFilter{From: q.from, To: q.to, Hosts: q.hosts},
		})
	})
	if err != nil {
		return flowdiff.Report{}, err
	}
	var p *signature.Pipeline
	var ts *tracedSource
	ls.span(root, "signature.source", func(id spanID) {
		ts = &tracedSource{EventSource: src, ls: ls, parent: id}
		p, err = signature.NewPipelineFromSourceContext(ctx, ts, appgroup.NewResolver(opts.Topo), sigConfig(opts), opts.Stability)
	})
	if err != nil {
		return flowdiff.Report{}, err
	}
	if err := checkCount(fmt.Sprintf("traced query [%v, %v) hosts=%d", q.from, q.to, len(q.hosts)), ts.n, q.events); err != nil {
		o.wrongf("%v", err)
	}
	start, end := src.Bounds()
	cur := tracedProducts(ls, root, p, end > start, opts)
	if cur.err != nil {
		return flowdiff.Report{}, cur.err
	}
	base := mon.Baseline()
	return tracedDiagnose(ctx, ls, root, builtSigs{apps: base.Apps, infra: base.Infra, stab: base.Stability}, cur, opts), nil
}
