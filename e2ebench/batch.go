package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"flowdiff"
	"flowdiff/internal/core/appgroup"
	"flowdiff/internal/core/diagnose"
	"flowdiff/internal/core/diff"
	"flowdiff/internal/core/signature"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/topology"
)

// batchScenario has the most events of the localization scenarios, so
// the offline path is measured at its heaviest.
const batchScenario = "incast-collapse"

// batchReadReps is how many times each capture is read back from FDC1
// after the timed phase for read_p50_ms.
const batchReadReps = 5

// runBatch is the batch-localize workload: the offline diagnosis path,
// one flowdiff.Compare of the baseline and problem captures per
// operation. The captures are encoded to FDC1 and loaded back during
// set-up, as the offline tool loads them from disk.
func runBatch(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ls := newLayerStats(tr)
	ctx := ls.ctx(context.Background())
	var (
		l1, l2     *flowlog.Log
		fdc1, fdc2 []byte
		opts       flowdiff.Options
		truth      string
	)
	setup, err := repeatSetup(cfg.setupReps, ls, func(root spanID) error {
		res, t, err := simulate(batchScenario, cfg.seed, cfg.capture)
		if err != nil {
			return err
		}
		ls.span(root, "colseg.encode", func(spanID) {
			if fdc1, err = encode(res.L1); err == nil {
				fdc2, err = encode(res.L2)
			}
		})
		if err != nil {
			return err
		}
		ls.span(root, "colseg.decode", func(spanID) {
			if l1, err = decode(ctx, fdc1); err == nil {
				l2, err = decode(ctx, fdc2)
			}
		})
		opts, truth = res.Options(), t
		return err
	})
	if err != nil {
		return nil, err
	}
	covered := int64(len(l1.Events) + len(l2.Events))

	// The traced run replays Compare layer by layer; its report must be
	// the one Compare itself returns.
	var want []byte
	if tr != nil {
		rep, err := flowdiff.Compare(context.Background(), l1, l2, nil, flowdiff.Thresholds{}, opts)
		if err != nil {
			return nil, err
		}
		if want, err = json.Marshal(rep); err != nil {
			return nil, err
		}
	}

	var p phase
	var lat []time.Duration
	for p.wall < cfg.seconds {
		var rep flowdiff.Report
		var opErr error
		ls.root("pass", func(root spanID) {
			p.measure(func() int64 {
				start := time.Now()
				if tr == nil {
					rep, opErr = flowdiff.Compare(ctx, l1, l2, nil, flowdiff.Thresholds{}, opts)
				} else {
					rep, opErr = tracedCompare(ctx, ls, root, l1, l2, opts)
				}
				lat = append(lat, time.Since(start))
				return covered
			})
		})
		o.attempted++
		if opErr != nil {
			o.fail("compare-error", opErr.Error())
			continue
		}
		if err := checkTruthFirst(rep, truth); err != nil {
			o.wrongf("compare %d: %v", o.attempted, err)
		}
		if err := checkAlarmed(rep); err != nil {
			o.wrongf("compare %d: %v", o.attempted, err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		if want == nil {
			want = got
		}
		if err := checkSameBytes(fmt.Sprintf("report of compare %d", o.attempted), got, want); err != nil {
			o.wrongf("%v", err)
		}
	}

	self, err := flowdiff.Compare(context.Background(), l1, l1, nil, flowdiff.Thresholds{}, opts)
	if err != nil {
		return nil, err
	}
	if err := checkNoChange(self); err != nil {
		o.wrongf("%v", err)
	}

	if tr != nil {
		ls.perLayer(o)
		runtimeLayer(o, &p, lat)
		monitorServeLayer(o, 0, 0, 0, 0, 0, 0)
		return o, nil
	}
	var reads []time.Duration
	for i := 0; i < batchReadReps; i++ {
		for _, c := range []struct {
			data []byte
			want int
		}{{fdc1, len(l1.Events)}, {fdc2, len(l2.Events)}} {
			// Each read starts from a collected heap, so whether a
			// collection falls inside it does not depend on the last.
			runtime.GC()
			start := time.Now()
			log, err := decode(context.Background(), c.data)
			reads = append(reads, time.Since(start))
			if err != nil {
				return nil, err
			}
			if err := checkCount("capture read", len(log.Events), c.want); err != nil {
				o.wrongf("%v", err)
			}
		}
	}
	endToEnd(o, setup, &p, lat, reads)
	return o, nil
}

// tracedCompare is flowdiff.Compare made of the calls it makes into
// each layer, each inside its own span: the two signature builds run
// concurrently as Compare runs them, then the diff and the diagnosis.
func tracedCompare(ctx context.Context, ls *layerStats, root spanID, l1, l2 *flowlog.Log, opts flowdiff.Options) (flowdiff.Report, error) {
	var sigs [2]builtSigs
	var wg sync.WaitGroup
	for i, log := range []*flowlog.Log{l1, l2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sigs[i] = tracedBuild(ctx, ls, root, log, opts)
		}()
	}
	wg.Wait()
	for _, s := range sigs {
		if s.err != nil {
			return flowdiff.Report{}, s.err
		}
	}
	return tracedDiagnose(ctx, ls, root, sigs[0], sigs[1], opts), nil
}

// builtSigs is one log's signature products.
type builtSigs struct {
	apps  []signature.AppSignature
	infra signature.InfraSignature
	stab  map[string]signature.Stability
	err   error
}

// sigConfig is the signature configuration flowdiff.Options derives:
// the service nodes bound application groups.
func sigConfig(opts flowdiff.Options) signature.Config {
	cfg := opts.Signature
	if cfg.Special == nil && len(opts.Special) > 0 {
		cfg.Special = make(map[topology.NodeID]bool, len(opts.Special))
		for _, s := range opts.Special {
			cfg.Special[s] = true
		}
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = opts.Parallelism
	}
	return cfg
}

// tracedBuild is flowdiff.BuildSignatures over an in-memory log.
func tracedBuild(ctx context.Context, ls *layerStats, root spanID, log *flowlog.Log, opts flowdiff.Options) builtSigs {
	r := appgroup.NewResolver(opts.Topo)
	var p *signature.Pipeline
	ls.span(root, "signature.extract", func(spanID) {
		p = signature.NewPipelineContext(ctx, log, r, sigConfig(opts))
	})
	return tracedProducts(ls, root, p, log.Duration() > 0, opts)
}

// tracedProducts builds every signature product of a prepared pipeline:
// group discovery first (App would otherwise run it inside its span),
// then the application, infrastructure and stability builds.
func tracedProducts(ls *layerStats, root spanID, p *signature.Pipeline, withStability bool, opts flowdiff.Options) builtSigs {
	var s builtSigs
	ls.span(root, "appgroup.discover", func(spanID) { p.Groups() })
	ls.span(root, "signature.app", func(spanID) { s.apps = p.App() })
	ls.span(root, "signature.infra", func(spanID) { s.infra = p.Infra() })
	if withStability {
		ls.span(root, "signature.stability", func(spanID) { s.stab, s.err = p.Stability(opts.Stability, s.apps) })
	}
	return s
}

// tracedDiagnose is flowdiff.Diff followed by flowdiff.Diagnose without
// task detection.
func tracedDiagnose(ctx context.Context, ls *layerStats, root spanID, base, cur builtSigs, opts flowdiff.Options) flowdiff.Report {
	var changes []diff.Change
	ls.span(root, "diff.compare", func(spanID) {
		changes = diff.CompareContext(ctx, base.apps, cur.apps, base.infra, cur.infra, base.stab, flowdiff.Thresholds{})
	})
	var rep flowdiff.Report
	ls.span(root, "diagnose", func(spanID) {
		rep = diagnose.DiagnoseContext(ctx, changes, nil, appgroup.NewResolver(opts.Topo), opts.Topo, 0)
	})
	return rep
}
