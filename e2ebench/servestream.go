package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"flowdiff"
	"flowdiff/internal/flowlog"
	"flowdiff/internal/obs"
	"flowdiff/internal/serve"
)

// serveTenants pairs each tenant with the scenario whose problem
// capture it streams. Both scenarios share one baseline capture at a
// given seed: their faults are injected only after it ends.
var serveTenants = []struct{ id, scenario string }{
	{"ecmp", "equal-cost-link-drop"},
	{"aggsw", "agg-switch-drop"},
}

const (
	// postEvents is the events per ingest POST.
	postEvents = 256
	// readEvery is how many POSTs a client sends between report reads.
	readEvery = 16
)

// tenantInput is one tenant's stream and its expected reports.
type tenantInput struct {
	id, truth string
	l2        *flowlog.Log
	// bodies are the POST bodies; bodyEvents[i] is the event count of
	// bodies[i].
	bodies     [][]byte
	bodyEvents []int
	// offline holds the reports a fresh offline Monitor produces from
	// the same events, serialized; served reports must match them.
	offline [][]byte
}

// service is the in-process server on a loopback listener.
type service struct {
	srv   *serve.Server
	hs    *http.Server
	reg   *obs.Registry
	url   string
	dir   string
	serve chan error
}

func startService(dir string, opts flowdiff.Options, budget int) (*service, error) {
	reg := obs.New()
	srv, err := serve.New(context.Background(), serve.Config{Dir: dir, Window: window, Options: opts, QueueBudget: budget, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, reg: reg, url: "http://" + ln.Addr().String(), dir: dir, serve: make(chan error, 1)}
	go func() { s.serve <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serving goroutine, drains the
// tenants and removes the store.
func (s *service) close() error {
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one closed-loop client on one keep-alive connection.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr}, url: url}
}

// do sends one request and reads the whole response, so the connection
// is reused.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.url+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// expect sends one request and returns the body when the status is the
// expected one.
func (c *client) expect(method, path string, body []byte, want int) ([]byte, error) {
	status, data, err := c.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, bytes.TrimSpace(data))
	}
	return data, nil
}

// streamResult is what one client saw during one pass.
type streamResult struct {
	posts, reads []time.Duration
	attempted    int64
	failures     []string
	events       int64
}

// stream sends the tenant's batches in a closed loop, reading the
// report list and the newest report after every readEvery-th POST, and
// ends with a flush.
func (c *client) stream(t *tenantInput, ls *layerStats, root spanID) streamResult {
	var r streamResult
	base := "/v1/tenants/" + t.id
	call := func(name, method, path string, body []byte, want int) []byte {
		r.attempted++
		var data []byte
		var err error
		ls.span(root, name, func(spanID) { data, err = c.expect(method, path, body, want) })
		if err != nil {
			r.failures = append(r.failures, err.Error())
			return nil
		}
		return data
	}
	for i, body := range t.bodies {
		start := time.Now()
		if call("serve.post", http.MethodPost, base+"/events", body, http.StatusAccepted) != nil {
			r.events += int64(t.bodyEvents[i])
		}
		r.posts = append(r.posts, time.Since(start))
		if (i+1)%readEvery != 0 {
			continue
		}
		start = time.Now()
		var list []serve.ReportSummary
		if data := call("serve.list", http.MethodGet, base+"/reports", nil, http.StatusOK); data != nil {
			if err := json.Unmarshal(data, &list); err != nil {
				r.failures = append(r.failures, fmt.Sprintf("decoding report list: %v", err))
			}
		}
		if len(list) > 0 {
			call("serve.get", http.MethodGet, fmt.Sprintf("%s/reports/%d", base, list[len(list)-1].Seq), nil, http.StatusOK)
		}
		r.reads = append(r.reads, time.Since(start))
	}
	call("serve.flush", http.MethodPost, base+"/flush", nil, http.StatusOK)
	return r
}

// runServe is the serve-stream workload: two tenants stream FDC1
// batches over loopback into the in-process service, which diagnoses
// every window and persists the reports, while the same clients read
// reports back.
func runServe(cfg config, tr *tracer) (*outcome, error) {
	o := newOutcome()
	ls := newLayerStats(tr)
	var (
		svc      *service
		tenants  []*tenantInput
		l1       *flowlog.Log
		baseBody []byte
		opts     flowdiff.Options
	)
	setup, err := repeatSetup(cfg.setupReps, ls, func(root spanID) error {
		if svc != nil {
			err := svc.close()
			svc = nil
			if err != nil {
				return err
			}
		}
		var err error
		tenants = nil
		for i, st := range serveTenants {
			res, truth, err := simulate(st.scenario, cfg.seed, cfg.capture)
			if err != nil {
				return err
			}
			if i == 0 {
				l1, opts = res.L1, res.Options()
			} else if !reflect.DeepEqual(res.L1, l1) {
				return fmt.Errorf("scenario %s has a different baseline capture than %s", st.scenario, serveTenants[0].scenario)
			}
			t := &tenantInput{id: st.id, truth: truth, l2: res.L2}
			ls.span(root, "colseg.encode", func(spanID) { t.bodies, t.bodyEvents, err = encodeBatches(res.L2) })
			if err != nil {
				return err
			}
			tenants = append(tenants, t)
		}
		ls.span(root, "colseg.encode", func(spanID) { baseBody, err = encode(l1) })
		if err != nil {
			return err
		}
		dir, err := os.MkdirTemp(cfg.scratch, "store-")
		if err != nil {
			return err
		}
		budget := 0
		for _, t := range tenants {
			budget = max(budget, len(t.l2.Events)+1)
		}
		if svc, err = startService(dir, opts, budget); err != nil {
			return err
		}
		return registerBaselines(svc, tenants, baseBody)
	})
	if err != nil {
		if svc != nil {
			svc.close()
		}
		return nil, err
	}
	defer svc.close()

	observe, flushes, err := offlineReports(ls, tenants, l1, opts)
	if err != nil {
		return nil, err
	}

	clients := make([]*client, len(tenants))
	for i := range clients {
		clients[i] = newClient(svc.url)
		defer clients[i].tr.CloseIdleConnections()
	}

	var p phase
	var posts, reads []time.Duration
	for pass := 0; p.wall < cfg.seconds; pass++ {
		if pass > 0 {
			if err := registerBaselines(svc, tenants, baseBody); err != nil {
				return nil, err
			}
		}
		results := make([]streamResult, len(tenants))
		ls.root("pass", func(root spanID) {
			p.measure(func() int64 {
				var wg sync.WaitGroup
				for i, t := range tenants {
					wg.Add(1)
					go func() {
						defer wg.Done()
						results[i] = clients[i].stream(t, ls, root)
					}()
				}
				wg.Wait()
				var n int64
				for _, r := range results {
					n += r.events
				}
				return n
			})
		})
		for i, r := range results {
			o.attempted += r.attempted
			for _, f := range r.failures {
				o.fail("http-status", f)
			}
			posts = append(posts, r.posts...)
			reads = append(reads, r.reads...)
			checkServed(o, clients[i], tenants[i], l1.End)
		}
		for _, t := range tenants {
			if _, err := clients[0].expect(http.MethodDelete, "/v1/tenants/"+t.id, nil, http.StatusNoContent); err != nil {
				return nil, err
			}
		}
	}

	if tr != nil {
		ls.perLayer(o)
		runtimeLayer(o, &p, posts)
		saveMS, loadMS, size, err := storeTimes(cfg.scratch, tenants, l1)
		if err != nil {
			return nil, err
		}
		var queueMax int64
		for _, t := range tenants {
			queueMax = max(queueMax, svc.reg.Gauge("serve.tenant."+t.id+".queue.depth").Max())
		}
		monitorServeLayer(o, observe, median(flushes), saveMS, loadMS, size, float64(queueMax))
		return o, nil
	}
	endToEnd(o, setup, &p, posts, reads)
	return o, nil
}

// encodeBatches cuts a capture into FDC1 bodies of postEvents events
// and returns them with their event counts.
func encodeBatches(l *flowlog.Log) ([][]byte, []int, error) {
	var bodies [][]byte
	var counts []int
	for i := 0; i < len(l.Events); i += postEvents {
		evs := l.Events[i:min(i+postEvents, len(l.Events))]
		body, err := encode(&flowlog.Log{Start: evs[0].Time, End: evs[len(evs)-1].Time, Events: evs})
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, body)
		counts = append(counts, len(evs))
	}
	return bodies, counts, nil
}

// registerBaselines uploads the shared baseline for every tenant, one
// client per tenant, concurrently.
func registerBaselines(svc *service, tenants []*tenantInput, body []byte) error {
	errs := make([]error, len(tenants))
	var wg sync.WaitGroup
	for i, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(svc.url)
			defer c.tr.CloseIdleConnections()
			_, errs[i] = c.expect(http.MethodPut, "/v1/tenants/"+t.id+"/baseline", body, http.StatusCreated)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// offlineReports runs a fresh offline Monitor over each tenant's stream,
// decoding the same FDC1 bodies the service receives, and keeps its
// serialized reports as the expected output. It returns the Monitor's
// mean per-event Observe cost without flushes and each window flush's
// duration in milliseconds; when tracing, each tenant's replay is one
// "replay" root.
func offlineReports(ls *layerStats, tenants []*tenantInput, l1 *flowlog.Log, opts flowdiff.Options) (float64, []float64, error) {
	var observeTotal time.Duration
	var observed int64
	var flushes []float64
	for _, t := range tenants {
		mon, err := flowdiff.NewMonitor(context.Background(), l1, window, nil, flowdiff.Thresholds{}, opts)
		if err != nil {
			return 0, nil, err
		}
		ctx := ls.ctx(context.Background())
		var reps []flowdiff.MonitorReport
		ls.root("replay", func(root spanID) {
			for _, body := range t.bodies {
				var log *flowlog.Log
				ls.span(root, "colseg.decode", func(spanID) { log, err = decode(ctx, body) })
				if err != nil {
					return
				}
				for _, e := range log.Events {
					start := time.Now()
					rep, oerr := mon.Observe(ctx, e)
					d := time.Since(start)
					if oerr != nil {
						err = oerr
						return
					}
					if rep != nil {
						flushes = append(flushes, ms(d))
						reps = append(reps, *rep)
						continue
					}
					observeTotal += d
					observed++
				}
			}
			start := time.Now()
			var rep *flowdiff.MonitorReport
			if rep, err = mon.Flush(ctx); rep != nil {
				flushes = append(flushes, ms(time.Since(start)))
				reps = append(reps, *rep)
			}
		})
		if err != nil {
			return 0, nil, fmt.Errorf("offline monitor for %s: %w", t.id, err)
		}
		t.offline = t.offline[:0]
		for _, r := range reps {
			data, err := json.Marshal(r.Report)
			if err != nil {
				return 0, nil, err
			}
			t.offline = append(t.offline, data)
		}
	}
	return float64(observeTotal.Nanoseconds()) / float64(observed), flushes, nil
}

// checkServed verifies one tenant after a pass: every event observed
// without error, reports numbered 1..N tiling the window grid from the
// baseline's end, each ranking the tenant's truth first and
// byte-identical to the offline Monitor's.
func checkServed(o *outcome, c *client, t *tenantInput, origin time.Duration) {
	base := "/v1/tenants/" + t.id
	var st serve.TenantStatus
	data, err := c.expect(http.MethodGet, base, nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	if err != nil {
		o.wrongf("tenant %s status: %v", t.id, err)
		return
	}
	if err := checkCount("tenant "+t.id+" events_observed", int(st.EventsObserved), len(t.l2.Events)); err != nil {
		o.wrongf("%v", err)
	}
	if st.LastError != "" {
		o.wrongf("tenant %s last_error: %s", t.id, st.LastError)
	}
	var list []serve.ReportSummary
	data, err = c.expect(http.MethodGet, base+"/reports", nil, http.StatusOK)
	if err == nil {
		err = json.Unmarshal(data, &list)
	}
	if err != nil {
		o.wrongf("tenant %s report list: %v", t.id, err)
		return
	}
	if err := checkSeqs(list); err != nil {
		o.wrongf("tenant %s: %v", t.id, err)
	}
	if err := checkTiling(list, origin, window); err != nil {
		o.wrongf("tenant %s: %v", t.id, err)
	}
	if len(list) != len(t.offline) {
		o.wrongf("tenant %s served %d reports; the offline Monitor produced %d", t.id, len(list), len(t.offline))
	}
	for i, s := range list {
		if i >= len(t.offline) {
			break
		}
		if err := checkServedReport(c, t, s.Seq, t.offline[i]); err != nil {
			o.wrongf("tenant %s: %v", t.id, err)
		}
	}
}

// checkServedReport fetches one persisted report and compares it with
// the offline Monitor's serialization and the ground truth.
func checkServedReport(c *client, t *tenantInput, seq uint64, want []byte) error {
	data, err := c.expect(http.MethodGet, fmt.Sprintf("/v1/tenants/%s/reports/%d", t.id, seq), nil, http.StatusOK)
	if err != nil {
		return err
	}
	var rec struct {
		Report json.RawMessage `json:"report"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("decoding report %d: %w", seq, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, rec.Report); err != nil {
		return fmt.Errorf("decoding report %d: %w", seq, err)
	}
	if err := checkSameBytes(fmt.Sprintf("served report %d", seq), compact.Bytes(), want); err != nil {
		return err
	}
	var rep flowdiff.Report
	if err := json.Unmarshal(want, &rep); err != nil {
		return err
	}
	if err := checkTruthFirst(rep, t.truth); err != nil {
		return fmt.Errorf("report %d: %w", seq, err)
	}
	return nil
}

// storeTimes persists the offline reports into a scratch store and
// loads them back, returning the median save and load times in
// milliseconds and the mean persisted size in bytes.
func storeTimes(scratch string, tenants []*tenantInput, l1 *flowlog.Log) (float64, float64, float64, error) {
	store, err := serve.OpenStore(filepath.Join(scratch, "replay-store"))
	if err != nil {
		return 0, 0, 0, err
	}
	var saves, loads []float64
	var size float64
	var n int
	for _, t := range tenants {
		if err := store.SaveBaseline(t.id, l1, serve.BaselineMeta{Version: 1, Events: len(l1.Events), Start: l1.Start, End: l1.End}); err != nil {
			return 0, 0, 0, err
		}
		for i, data := range t.offline {
			rec := serve.ReportRecord{Seq: uint64(i + 1), SavedAtUnixNS: time.Now().UnixNano()}
			if err := json.Unmarshal(data, &rec.Report); err != nil {
				return 0, 0, 0, err
			}
			start := time.Now()
			if err := store.SaveReport(t.id, rec); err != nil {
				return 0, 0, 0, err
			}
			saves = append(saves, ms(time.Since(start)))
			start = time.Now()
			if _, err := store.LoadReport(t.id, rec.Seq); err != nil {
				return 0, 0, 0, err
			}
			loads = append(loads, ms(time.Since(start)))
			// SaveReport persists exactly this serialization.
			persisted, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				return 0, 0, 0, err
			}
			size += float64(len(persisted))
			n++
		}
	}
	return median(saves), median(loads), size / float64(n), nil
}
