// Command perfbench is the repository benchmark: it runs one named
// workload from a seed, checks the program's outputs, and prints every
// end-to-end metric (or, with -trace 1, every per-layer metric) as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it through run.sh, which builds this module and the iscoped
// daemon from source first:
//
//	bash perfbench/run.sh --workload fair-fleet --seed 1 --seconds 20 --trace 0
//
// The benchmark only calls public functions of the program's layers
// (scheduler, simulator, telemetry, checkpoint, wal, service, and the
// fleet/workload/wind set-up packages); it changes no program code.
// README.md in this directory lists the workloads, the metrics, and
// which layer metric should move which end-to-end metric on which
// workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line's schema.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit; the lists below mirror
// BENCHMARK.json and are checked against it by the self-tests.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sim_wall_s", "s"},
	{"events_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"success_frac", "frac"},
	{"submit_p50_ms", "ms"},
	{"submit_p90_ms", "ms"},
	{"advance_p90_ms", "ms"},
	{"max_submit_rps", "1/s"},
	{"recovery_s", "s"},
}

var batchClasses = []string{"arrival", "completion", "tick"}

var walPolicies = []string{"always", "interval", "off"}

// selfLayers are the layers whose self time the traced run reports.
var selfLayers = []string{"scheduler", "simulator", "telemetry", "checkpoint", "wal", "service", "setup"}

func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"scheduler.events", "count"},
		{"scheduler.batches", "count"},
		{"scheduler.events_per_batch", "count"},
	}
	for _, c := range batchClasses {
		defs = append(defs,
			metricDef{"scheduler." + c + "_batch_busy_s", "s"},
			metricDef{"scheduler." + c + "_batch_p50_us", "us"},
			metricDef{"scheduler." + c + "_batch_p99_us", "us"},
		)
	}
	defs = append(defs,
		metricDef{"scheduler.batch_cover_frac", "frac"},
		metricDef{"scheduler.snapshot_s", "s"},
		metricDef{"scheduler.snapshot_bytes", "bytes"},
		metricDef{"scheduler.restore_s", "s"},
		metricDef{"scheduler.result_s", "s"},
		metricDef{"scheduler.alloc_bytes_per_event", "bytes"},
		metricDef{"simulator.replay_ns_per_event", "ns"},
		metricDef{"simulator.front_bucket_push_frac", "frac"},
		metricDef{"telemetry.sample_us", "us"},
		metricDef{"checkpoint.write_ms", "ms"},
	)
	for _, p := range walPolicies {
		defs = append(defs, metricDef{"wal.append_p50_us." + p, "us"}, metricDef{"wal.append_p99_us." + p, "us"})
	}
	defs = append(defs,
		metricDef{"wal.replay_s", "s"},
		metricDef{"service.submit_handler_p99_us", "us"},
		metricDef{"service.advance_handler_p99_us", "us"},
		metricDef{"service.checkpoint_s", "s"},
		metricDef{"service.loadall_s", "s"},
		metricDef{"service.rejects", "count"},
		metricDef{"scheduler.build_fleet_s", "s"},
		metricDef{"workload.synthesize_s", "s"},
		metricDef{"wind.generate_s", "s"},
		metricDef{"submit_samples", "count"},
		metricDef{"submit_p99_ms", "ms"},
		metricDef{"advance_p99_ms", "ms"},
		metricDef{"trace_overhead_frac", "frac"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_s." + l, "s"})
	}
	return defs
}

// options is everything a workload run needs from the command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // tiny sizes for the self-tests
	work     string // directory for state and temporary files, inside the checkout
	traces   string // where traced runs write their spans
	iscoped  string // daemon binary
	digests  string // reference digest table
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fair-fleet, effi-hostile or daemon-stream")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.StringVar(&o.work, "work", ".bench_build/work", "directory for state and temporary files")
	flag.StringVar(&o.traces, "traces", ".bench_build/traces", "directory for the traced runs' spans")
	flag.StringVar(&o.iscoped, "iscoped", ".bench_build/bin/iscoped", "iscoped binary")
	flag.StringVar(&o.digests, "digests", "perfbench/digests.json", "reference Result digests")
	record := flag.String("record-digests", "", "print the reference digest table for these comma-separated seeds and exit")
	flag.Parse()
	o.trace = trace == 1
	if *record != "" {
		if err := printDigests(o, *record); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(o options) (*report, error) {
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	refs, err := loadDigests(o.digests)
	if err != nil {
		return nil, err
	}
	o.work = filepath.Join(o.work, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.work)

	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%v cpu=%q nproc=%d gomaxprocs=%d go=%s\n",
		o.workload, o.seed, o.seconds, o.trace, cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var out *outcome
	switch o.workload {
	case "fair-fleet", "effi-hostile":
		out, err = runEngineWorkload(o, refs)
	case "daemon-stream":
		out, err = runDaemonWorkload(o, refs)
	default:
		return nil, fmt.Errorf("unknown workload %q (want fair-fleet, effi-hostile or daemon-stream)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayerDefs()
	} else {
		out.set("success_frac", 1-float64(out.failed)/float64(out.attempted))
	}
	rep := &report{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not measure %s", o.workload, d.name)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Printf("  errors_frac %g (%d failed of %d attempted)\n", float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	return rep, nil
}

func printDigests(o options, list string) error {
	var seeds []uint64
	for _, f := range strings.Split(list, ",") {
		n, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("-record-digests: %w", err)
		}
		seeds = append(seeds, n)
	}
	t, err := recordDigests(o, seeds)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// cpuModel reads the host CPU model for the run header.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

// peakRSSMB is this process's peak resident set (VmHWM).
func peakRSSMB() float64 { return procHWM(os.Getpid()) }

// since is the elapsed seconds since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// Set-up and recovery are short, single-shot operations; each run
// repeats them and reports the median.
const (
	setupReps    = 5
	recoveryReps = 5
)
