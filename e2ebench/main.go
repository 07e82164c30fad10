// Command e2ebench is FlowDiff's end-to-end benchmark. It runs one
// named workload per process over simulated data-center captures whose
// faulty component is known, times the workload's operation for a fixed
// wall-clock budget, checks every output against that ground truth or
// against a property the program must keep, and prints one JSON result
// line. With -trace 1 it instead times the calls it makes into each
// layer (spans kept in memory, self time = duration minus the part
// children cover) and prints the per-layer metrics.
//
//	go build -o e2ebench.bin ./e2ebench
//	./e2ebench.bin -workload batch-localize -seed 1 -seconds 10 -trace 0
//
// See e2ebench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// config is one run's parameters. Tests shrink the capture and the
// number of set-up repetitions; the command uses the defaults.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// capture is the length of each simulated capture (L1 and L2).
	capture time.Duration
	// setupReps is how many times set-up runs; setup_s is their median
	// and the last one's products feed the timed phase.
	setupReps int
	// scratch holds files the run writes (service stores); it lives
	// under the checkout and is removed when the run ends.
	scratch string
}

const (
	defaultCapture   = 10 * time.Minute
	defaultSetupReps = 3
	// window is the Monitor and service diagnosis window.
	window = time.Minute
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects a run's operation counts, check results and metrics.
type outcome struct {
	attempted int64
	failed    int64
	// failedBy counts failed operations by the check they failed;
	// firstFailure keeps the first failure's detail for each check.
	failedBy     map[string]int64
	firstFailure map[string]string
	// wrong lists outputs that contradict a check; any entry makes the
	// run incorrect.
	wrong   []string
	metrics map[string]metric
}

func newOutcome() *outcome {
	return &outcome{failedBy: make(map[string]int64), firstFailure: make(map[string]string), metrics: make(map[string]metric)}
}

// fail counts one failed operation under the check it failed.
func (o *outcome) fail(check, detail string) {
	o.failed++
	if o.failedBy[check] == 0 {
		o.firstFailure[check] = detail
	}
	o.failedBy[check]++
}

// wrongf records an incorrect output. Only the first few are kept;
// one is enough to mark the run incorrect.
func (o *outcome) wrongf(format string, args ...any) {
	if len(o.wrong) < 16 {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (o *outcome) set(name, unit string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the machine-readable record each run writes; the benchcmp
// command compares two sets of them.
type record struct {
	Commit       string            `json:"commit"`
	GoVersion    string            `json:"go_version"`
	NumCPU       int               `json:"num_cpu"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	Workload     string            `json:"workload"`
	Seed         int64             `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Correct      bool              `json:"correct"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`
	FailedChecks map[string]int64  `json:"failed_checks"`
	Wrong        []string          `json:"wrong,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	UnixNS       int64             `json:"unix_ns"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config, tr *tracer) (*outcome, error){
	"batch-localize":  runBatch,
	"archive-windows": runArchive,
	"serve-stream":    runServe,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "workload to run: batch-localize, archive-windows or serve-stream")
		seed    = flag.Int64("seed", 1, "seed for the simulated inputs")
		seconds = flag.Int("seconds", 10, "wall-clock seconds the timed phase measures")
		trace   = flag.Int("trace", 0, "1 times each layer and prints per-layer metrics; 0 prints end-to-end metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for run records, spans and scratch files")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(*out, "scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	cfg := config{
		workload:  *name,
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		capture:   defaultCapture,
		setupReps: defaultSetupReps,
		scratch:   scratch,
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	o, err := run(cfg, tr)
	if err != nil {
		return err
	}
	if !cfg.trace {
		o.set("peak_rss_mib", "MiB", peakRSSMiB())
	}
	stamp := fmt.Sprintf("%s-seed%d-trace%d-%d", cfg.workload, cfg.seed, *trace, time.Now().UnixNano())
	if tr != nil {
		if err := writeSpans(filepath.Join(*out, "spans", stamp+".jsonl"), tr); err != nil {
			return err
		}
	}
	if err := writeRecord(filepath.Join(*out, "records", stamp+".json"), cfg, o); err != nil {
		return err
	}
	for _, w := range o.wrong {
		fmt.Fprintln(os.Stderr, "check failed:", w)
	}
	for _, c := range sortedKeys(o.failedBy) {
		fmt.Fprintf(os.Stderr, "failed operations: %d of %d failed check %s (first: %s)\n", o.failedBy[c], o.attempted, c, o.firstFailure[c])
	}
	line, err := json.Marshal(result{Correct: len(o.wrong) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM), set-up
// included.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeRecord(path string, cfg config, o *outcome) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	rec := record{
		Commit:       commit(),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds.Seconds(),
		Trace:        cfg.trace,
		Correct:      len(o.wrong) == 0,
		Attempted:    o.attempted,
		Failed:       o.failed,
		FailedChecks: o.failedBy,
		Wrong:        o.wrong,
		Metrics:      o.metrics,
		UnixNS:       time.Now().UnixNano(),
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit is the VCS revision the binary was built from, when the build
// saw one ("unknown" in a checkout without version control).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
