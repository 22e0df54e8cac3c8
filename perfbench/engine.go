package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"iscope/internal/battery"
	"iscope/internal/brownout"
	"iscope/internal/faults"
	"iscope/internal/scheduler"
	"iscope/internal/telemetry"
	"iscope/internal/units"
	"iscope/internal/wind"
	"iscope/internal/workload"
)

// engineShape sizes one in-process engine workload.
type engineShape struct {
	scheme  string
	procs   int
	jobs    int
	span    units.Seconds // arrival window of each synthesized trace
	hostile bool          // faults, telemetry, brownout, battery, checkpoint sink
}

// The engine fleets are four times the paper's 4,800 processors, at the
// paper's arrival density of 48,000 jobs per simulated day. fair-fleet
// takes 12 hours of arrivals and effi-hostile, whose minute-grid
// telemetry and rebalance ticks cost more per simulated hour, 6 hours,
// so one repetition of either stays near 3-6 s on a 2-core host and a
// run takes several.
func engineShapeFor(name string, smoke bool) engineShape {
	sh := engineShape{scheme: "ScanFair", procs: 19200, jobs: 24000, span: units.Hours(12)}
	if name == "effi-hostile" {
		sh = engineShape{scheme: "ScanEffi", procs: 19200, jobs: 12000, span: units.Hours(6), hostile: true}
	}
	if smoke {
		sh.procs, sh.jobs, sh.span = 480, 600, units.Hours(3)
	}
	return sh
}

// tracesPerRun is how many job traces a seed draws for an engine
// workload. Repetitions cycle through them and each metric averages
// the traces' medians, so one seed's load pattern does not set a run's
// figures on its own.
const tracesPerRun = 4

// hostileCheckpointEvery is effi-hostile's periodic snapshot period.
const hostileCheckpointEvery = 3 * 3600

// jobSet is one job trace and its arrival times.
type jobSet struct {
	trace    *workload.Trace
	arrivals map[units.Seconds]int // submit time -> jobs arriving then
}

func newJobSet(tr *workload.Trace) jobSet {
	js := jobSet{trace: tr, arrivals: make(map[units.Seconds]int)}
	for _, j := range tr.Jobs {
		js.arrivals[j.Submit]++
	}
	return js
}

// engineInput is one workload's built inputs.
type engineInput struct {
	shape engineShape
	fleet *scheduler.Fleet
	sch   scheduler.Scheme
	cfg   scheduler.RunConfig // Jobs is set per trace
	jobs  []jobSet
}

// setupSplit times the set-up stages of one build.
type setupSplit struct{ fleet, synth, wind, stepper float64 }

func (s setupSplit) total() float64 { return s.fleet + s.synth + s.wind + s.stepper }

// Seed derivation: the fleet and each job trace get their own stream
// of the workload seed. The weather is a fixed reference trace (wind
// seed 3, as in the repository's large-fleet benchmark tier): wind
// abundance switches ScanFair between its fair and efficiency orders,
// so a seed-drawn weather would change which code a workload exercises
// rather than only the inputs it feeds it.
func fleetSeed(seed uint64) uint64      { return seed*4 + 1 }
func jobSeed(seed uint64, k int) uint64 { return seed*16 + uint64(k) }

const referenceWindSeed = 3

// synthesize builds a deadline-annotated Thunder-like trace.
func synthesize(seed uint64, jobs, maxProcs int, span units.Seconds) (*workload.Trace, error) {
	cfg := workload.DefaultSynthConfig(seed, jobs)
	cfg.MaxProcs = maxProcs
	cfg.Span = span
	tr, err := workload.Synthesize(cfg)
	if err != nil {
		return nil, err
	}
	if err := tr.AssignDeadlines(workload.DefaultDeadlines(seed+1, 0.3)); err != nil {
		return nil, err
	}
	return tr, nil
}

// buildEngine runs the workload's set-up: fleet build, trace synthesis,
// wind generation, and a first NewStepper (closed again; the timed
// repetitions build their own).
func buildEngine(sh engineShape, seed uint64, tr *tracer) (*engineInput, setupSplit, error) {
	var sp setupSplit
	root := tr.begin("setup.engine", -1)
	defer tr.end(root)

	t := time.Now()
	id := tr.begin("setup.build_fleet", root)
	fleet, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(fleetSeed(seed), sh.procs))
	tr.end(id)
	sp.fleet = since(t)
	if err != nil {
		return nil, sp, err
	}

	t = time.Now()
	id = tr.begin("setup.synthesize", root)
	var sets []jobSet
	for k := 0; k < tracesPerRun; k++ {
		jobs, err := synthesize(jobSeed(seed, k), sh.jobs, 64, sh.span)
		if err != nil {
			tr.end(id)
			return nil, sp, err
		}
		sets = append(sets, newJobSet(jobs))
	}
	tr.end(id)
	sp.synth = since(t)

	t = time.Now()
	id = tr.begin("setup.wind", root)
	// Weather for the arrival window plus two days of drain.
	w, err := wind.Generate(wind.DefaultConfig(referenceWindSeed, sh.span+units.Days(2)))
	if err == nil {
		w = w.Scale(float64(sh.procs) / 4800)
	}
	tr.end(id)
	sp.wind = since(t)
	if err != nil {
		return nil, sp, err
	}

	sch, ok := scheduler.SchemeByName(sh.scheme)
	if !ok {
		return nil, sp, fmt.Errorf("unknown scheme %s", sh.scheme)
	}
	cfg := scheduler.RunConfig{Seed: seed, Wind: w, EnableRebalance: true, Workers: 1}
	if sh.hostile {
		fs := faults.DefaultSpec()
		ts := telemetry.DefaultSpec()
		bc := brownout.DefaultConfig()
		bat := battery.DefaultSpec(units.FromKWh(float64(sh.procs) / 20))
		cfg.Faults, cfg.Telemetry, cfg.Brownout, cfg.Battery = &fs, &ts, &bc, &bat
	}
	in := &engineInput{shape: sh, fleet: fleet, sch: sch, cfg: cfg, jobs: sets}

	t = time.Now()
	id = tr.begin("setup.new_stepper", root)
	st, err := in.newStepper(0, nil)
	tr.end(id)
	sp.stepper = since(t)
	if err != nil {
		return nil, sp, err
	}
	st.Close()
	return in, sp, nil
}

// newStepper builds a sealed stepper over trace k; resume restores a
// snapshot. effi-hostile's periodic snapshots are encoded into memory
// and dropped.
func (in *engineInput) newStepper(k int, resume []byte) (*scheduler.Stepper, error) {
	cfg := in.cfg
	cfg.Jobs = in.jobs[k].trace
	if in.shape.hostile {
		cfg.Checkpoint = &scheduler.CheckpointConfig{Every: hostileCheckpointEvery, Sink: func([]byte) error { return nil }}
	}
	cfg.Resume = resume
	st, err := scheduler.NewStepper(in.fleet, in.sch, cfg)
	if err != nil {
		return nil, err
	}
	st.Seal()
	return st, nil
}

// Batch classes, by the batch's virtual time: a trace submit time is an
// arrival, a time on the 60 s grid (which contains the 600 s grid) is a
// tick, anything else a completion.
const (
	classArrival = iota
	classCompletion
	classTick
)

var classSpan = [...]string{"scheduler.batch.arrival", "scheduler.batch.completion", "scheduler.batch.tick"}

func (js *jobSet) classify(at units.Seconds) int {
	if _, ok := js.arrivals[at]; ok {
		return classArrival
	}
	if math.Mod(float64(at), 60) == 0 {
		return classTick
	}
	return classCompletion
}

// batchRec is one batch of a recorded run: the shape the calendar
// replay probe reproduces.
type batchRec struct {
	at       units.Seconds
	fired    int
	arrivals int // trace arrivals among the fired events
	pending  int // Status().PendingEvents after the batch
}

// repOpts selects the extras of one repetition.
type repOpts struct {
	snapAt units.Seconds // take a Stepper.Snapshot once the clock reaches this time (0: none)
	record bool          // keep per-batch records for the calendar replay
	tr     *tracer
}

// repStats is one repetition's measurements.
type repStats struct {
	trace     int     // which of the input's job traces ran
	wall      float64 // first event -> Result, snapshot excluded
	events    int
	batches   int
	classN    [3]int     // batches per class
	classBusy [3]float64 // seconds inside ProcessEventBatch, per class
	classP50  [3]float64 // per-class batch latency quantiles, seconds
	classP90  [3]float64
	classP99  [3]float64
	batchBusy float64 // all classes
	advP90    float64 // quantiles over arrival and tick batches
	advP99    float64
	resultS   float64
	digest    string
	snapshot  []byte
	snapS     float64
	records   []batchRec
	pending0  int
	result    *scheduler.Result
}

// batchDur is the per-class batch latency buffer of the repetition
// in progress, reused so the benchmark's own memory stays flat.
var batchDur [3][]float64

// summarize folds batchDur into the repetition's class figures.
//
// The advance quantiles leave out completion batches. Those are three
// quarters of all calls and take a few microseconds, so a quantile
// over every call sits where they end and the costlier calls begin:
// on effi-hostile the p85 of every call is 0.02-0.03 ms, the p90
// 0.10-0.16 and the p95 0.16-0.25, and a small change in the host's
// speed moves the p90 across that gap.
func (rs *repStats) summarize() {
	var adv []float64
	for c, ds := range batchDur {
		rs.classN[c] = len(ds)
		rs.classBusy[c] = sum(ds)
		rs.batchBusy += rs.classBusy[c]
		if c != classCompletion {
			adv = append(adv, ds...)
		}
		rs.classP50[c] = quantile(ds, 0.5)
		rs.classP90[c] = quantile(ds, 0.9)
		rs.classP99[c] = quantile(ds, 0.99)
	}
	rs.advP90 = quantile(adv, 0.9)
	rs.advP99 = quantile(adv, 0.99)
}

// runRep drives one full simulation of trace k through
// ProcessEventBatch and times every batch. A collection first starts
// every repetition from the same heap: left to the pacer, the previous
// repetition's garbage moved where the collections fell, and with them
// the process's peak RSS (125-151 MB over ten fair-fleet runs).
func (in *engineInput) runRep(k int, o repOpts) (*repStats, error) {
	rs := &repStats{trace: k}
	js := &in.jobs[k]
	runtime.GC()
	st, err := in.newStepper(k, nil)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	for c := range batchDur {
		batchDur[c] = batchDur[c][:0]
	}
	if o.record {
		rs.pending0 = st.Status().PendingEvents
	}
	root := o.tr.begin("scheduler.run", -1)
	start := time.Now()
	for !st.Finished() {
		if o.snapAt > 0 && rs.snapshot == nil && st.Now() >= o.snapAt {
			t := time.Now()
			id := o.tr.begin("scheduler.snapshot", root)
			rs.snapshot, err = st.Snapshot()
			o.tr.end(id)
			rs.snapS = since(t)
			if err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		n, err := st.ProcessEventBatch()
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		// Every event of a batch shares its timestamp, which the clock
		// now shows; classifying afterwards spares a PeekNextEventTime
		// that would sort the calendar's front bucket outside the timed
		// call.
		at := st.Now()
		c := js.classify(at)
		o.tr.add(classSpan[c], t0, t1, root)
		batchDur[c] = append(batchDur[c], t1.Sub(t0).Seconds())
		rs.events += n
		rs.batches++
		if o.record {
			arr := 0
			if c == classArrival {
				arr = min(n, js.arrivals[at])
			}
			rs.records = append(rs.records, batchRec{at: at, fired: n, arrivals: arr, pending: st.Status().PendingEvents})
		}
	}
	t := time.Now()
	id := o.tr.begin("scheduler.result", root)
	res, err := st.Result()
	o.tr.end(id)
	rs.resultS = since(t)
	rs.wall = since(start) - rs.snapS
	o.tr.end(root)
	if err != nil {
		return nil, err
	}
	rs.summarize()
	rs.digest = resultDigest(res)
	rs.result = res
	return rs, nil
}

// resumeRun restores a snapshot of trace k's run and, when finish is
// set, drives the rest of it; it returns the restore time and the
// final digest. A collection first keeps the previous work's garbage
// out of the timed restore.
func (in *engineInput) resumeRun(k int, snap []byte, finish bool, tr *tracer) (float64, string, error) {
	runtime.GC()
	t := time.Now()
	id := tr.begin("scheduler.restore", -1)
	st, err := in.newStepper(k, snap)
	tr.end(id)
	restore := since(t)
	if err != nil {
		return 0, "", err
	}
	defer st.Close()
	if !finish {
		return restore, "", nil
	}
	_, res, err := drain(st)
	if err != nil {
		return 0, "", err
	}
	return restore, resultDigest(res), nil
}

// medianRestore restores snapshot snap of trace k n times and returns
// the median restore time.
func (in *engineInput) medianRestore(k int, snap []byte, n int, tr *tracer) (float64, error) {
	var restores []float64
	for i := 0; i < n; i++ {
		r, _, err := in.resumeRun(k, snap, false, tr)
		if err != nil {
			return 0, fmt.Errorf("restore: %w", err)
		}
		restores = append(restores, r)
	}
	return median(restores), nil
}

// drain drives st to its end through ProcessEventBatch alone and
// returns the events fired and the Result.
func drain(st *scheduler.Stepper) (int, *scheduler.Result, error) {
	events := 0
	for !st.Finished() {
		n, err := st.ProcessEventBatch()
		if err != nil {
			return 0, nil, err
		}
		if n == 0 {
			break
		}
		events += n
	}
	res, err := st.Result()
	return events, res, err
}

// allocRun runs trace k once more with nothing of the benchmark's own
// in the loop (no timing buffers, spans or records), so the heap bytes
// it allocates are the program's alone; it returns them, the events
// fired and the run's digest.
func (in *engineInput) allocRun(k int) (uint64, int, string, error) {
	st, err := in.newStepper(k, nil)
	if err != nil {
		return 0, 0, "", err
	}
	defer st.Close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	events, res, err := drain(st)
	if err != nil {
		return 0, 0, "", err
	}
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc - alloc0, events, resultDigest(res), nil
}

// traceMedians averages over traces the median of f across each
// trace's repetitions.
func traceMedians(reps []*repStats, f func(*repStats) float64) float64 {
	per := make(map[int][]float64)
	for _, rs := range reps {
		per[rs.trace] = append(per[rs.trace], f(rs))
	}
	total := 0.0
	for _, xs := range per {
		total += median(xs)
	}
	return total / float64(len(per))
}

func runEngineWorkload(o options, refs digestTable) (*outcome, error) {
	sh := engineShapeFor(o.workload, o.smoke)
	out := &outcome{metrics: make(map[string]float64)}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	// Set-up, setupReps times; the last build is the one measured.
	var in *engineInput
	var splits []setupSplit
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		var sp setupSplit
		var err error
		in, sp, err = buildEngine(sh, o.seed, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		splits = append(splits, sp)
	}
	setupMedian(out, splits)

	// Timed repetitions, cycling through the traces, until the
	// measurement window closes and every trace has run. A traced run
	// follows each untraced repetition with a traced one of the same
	// trace, so the overhead baseline sees the same trace and nearly the
	// same host. Each trace's mid-run snapshot is restored
	// recoveryReps times right after the repetition that took it, so
	// recovery_s samples the host across the window as sim_wall_s does
	// rather than at one moment after it; the window is extended by the
	// restores' time.
	var reps, traced []*repStats
	recovery := 0.0 // mean over traces of the median restore time
	minReps := tracesPerRun
	if o.trace {
		minReps = 2 * tracesPerRun
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		k, isTraced := i%tracesPerRun, false
		if o.trace {
			k, isTraced = (i/2)%tracesPerRun, i%2 == 1
		}
		ro := repOpts{}
		if !isTraced && len(reps) < tracesPerRun {
			ro.snapAt = sh.span / 2
		}
		if isTraced {
			ro.tr = tr
			ro.record = len(traced) == 0
		}
		rs, err := in.runRep(k, ro)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		fmt.Printf("  rep %d: trace %d, %.3f s, %d events in %d batches, advance p90 %.4f ms, makespan %.1f h, digest %s, traced %v\n",
			i, k, rs.wall, rs.events, rs.batches, 1e3*rs.advP90, float64(rs.result.Makespan)/3600, rs.digest, isTraced)
		if isTraced {
			traced = append(traced, rs)
			continue
		}
		reps = append(reps, rs)
		if rs.snapshot != nil {
			t := time.Now()
			r, err := in.medianRestore(k, rs.snapshot, recoveryReps, tr)
			if err != nil {
				return nil, err
			}
			recovery += r / tracesPerRun
			deadline = deadline.Add(time.Since(t))
		}
	}
	first := reps[0]

	// Output check: every repetition against the committed digest of
	// its trace, or against the trace's first repetition when the seed
	// has none; each trace's event and batch counts must repeat exactly.
	// The first tracesPerRun untraced repetitions ran traces 0, 1, ...
	// in order.
	ref, haveRef := refs.ref(digestKey(o), o.seed)
	want := make([]string, tracesPerRun)
	for k := range want {
		want[k] = reps[k].digest
	}
	if haveRef {
		copy(want, strings.Split(ref, ","))
	}
	for _, rs := range append(append([]*repStats(nil), reps...), traced...) {
		f := reps[rs.trace]
		out.op(rs.digest == want[rs.trace] && rs.events == f.events && rs.batches == f.batches)
	}

	// A resumed run of trace 0 must reach the same digest.
	for _, rs := range reps[:tracesPerRun] {
		if rs.snapshot == nil {
			return nil, fmt.Errorf("trace %d: no mid-run snapshot was taken", rs.trace)
		}
	}
	_, d, err := in.resumeRun(0, first.snapshot, true, nil)
	if err != nil {
		return nil, fmt.Errorf("resumed run: %w", err)
	}
	out.op(d == want[0])
	fmt.Printf("  digests %v (committed %v), resumed %s\n", want, haveRef, d)

	perRep := func(f func(*repStats) float64) float64 { return traceMedians(reps, f) }
	out.set("sim_wall_s", perRep(func(rs *repStats) float64 { return rs.wall }))
	out.set("events_per_s", perRep(func(rs *repStats) float64 { return float64(rs.events) / rs.wall }))
	out.set("peak_rss_mb", peakRSSMB())
	out.set("submit_p50_ms", 1e3*perRep(func(rs *repStats) float64 { return rs.classP50[classArrival] }))
	out.set("submit_p90_ms", 1e3*perRep(func(rs *repStats) float64 { return rs.classP90[classArrival] }))
	out.set("advance_p90_ms", 1e3*perRep(func(rs *repStats) float64 { return rs.advP90 }))
	out.set("submit_p99_ms", 1e3*perRep(func(rs *repStats) float64 { return rs.classP99[classArrival] }))
	out.set("advance_p99_ms", 1e3*perRep(func(rs *repStats) float64 { return rs.advP99 }))
	out.set("max_submit_rps", perRep(func(rs *repStats) float64 { return float64(sh.jobs) / rs.wall }))
	out.set("recovery_s", recovery)
	fmt.Printf("  %d repetitions over %d traces, %d arrival-batch samples each\n", len(reps), tracesPerRun, first.classN[classArrival])
	if !o.trace {
		return out, nil
	}

	// Per-layer figures from the traced repetitions.
	perTraced := func(f func(*repStats) float64) float64 { return traceMedians(traced, f) }
	out.set("scheduler.events", float64(first.events))
	out.set("scheduler.batches", float64(first.batches))
	out.set("scheduler.events_per_batch", float64(first.events)/float64(first.batches))
	setBatchClasses(out, perTraced, perTraced)
	out.set("scheduler.snapshot_s", first.snapS)
	out.set("scheduler.snapshot_bytes", float64(len(first.snapshot)))
	// recovery_s is itself a scheduler restore here; restore_s measures
	// trace 0's anew so the per-layer figure has samples of its own.
	restore, err := in.medianRestore(0, first.snapshot, 3, tr)
	if err != nil {
		return nil, err
	}
	out.set("scheduler.restore_s", restore)
	out.set("scheduler.result_s", perTraced(func(rs *repStats) float64 { return rs.resultS }))
	alloc, events, d, err := in.allocRun(0)
	if err != nil {
		return nil, fmt.Errorf("allocation run: %w", err)
	}
	out.op(d == want[0] && events == first.events)
	out.set("scheduler.alloc_bytes_per_event", float64(alloc)/float64(events))
	out.set("submit_samples", float64(first.classN[classArrival]))
	out.set("trace_overhead_frac", perTraced(func(rs *repStats) float64 { return rs.wall })/out.metrics["sim_wall_s"]-1)

	rec := traced[0]
	lc := layerCase{
		seed:     o.seed,
		procs:    sh.procs,
		records:  rec.records,
		pending0: rec.pending0,
		snapshot: first.snapshot,
		jobs:     in.jobs[rec.trace].trace,
		tenants:  []tenantShape{{scheme: sh.scheme}},
		smoke:    o.smoke,
	}
	if err := runLayerProbes(o, lc, tr, out); err != nil {
		return nil, err
	}
	return out, finishTrace(o, tr, out)
}

// setupMedian reports the median set-up time and its stages.
func setupMedian(out *outcome, splits []setupSplit) {
	pick := func(f func(setupSplit) float64) float64 {
		xs := make([]float64, len(splits))
		for i, s := range splits {
			xs[i] = f(s)
		}
		return median(xs)
	}
	out.set("setup_s", pick(setupSplit.total))
	out.set("scheduler.build_fleet_s", pick(func(s setupSplit) float64 { return s.fleet }))
	out.set("workload.synthesize_s", pick(func(s setupSplit) float64 { return s.synth }))
	out.set("wind.generate_s", pick(func(s setupSplit) float64 { return s.wind }))
}

// setBatchClasses reports per-class busy time and latency quantiles,
// aggregating repetitions with busy and quant respectively, and the
// share of the run's wall time the batch calls cover.
func setBatchClasses(out *outcome, busy, quant func(func(*repStats) float64) float64) {
	for c, name := range batchClasses {
		out.set("scheduler."+name+"_batch_busy_s", busy(func(rs *repStats) float64 { return rs.classBusy[c] }))
		out.set("scheduler."+name+"_batch_p50_us", 1e6*quant(func(rs *repStats) float64 { return rs.classP50[c] }))
		out.set("scheduler."+name+"_batch_p99_us", 1e6*quant(func(rs *repStats) float64 { return rs.classP99[c] }))
	}
	out.set("scheduler.batch_cover_frac", busy(func(rs *repStats) float64 { return rs.batchBusy })/busy(func(rs *repStats) float64 { return rs.wall }))
}

// finishTrace derives per-layer self times and writes the spans out.
func finishTrace(o options, tr *tracer, out *outcome) error {
	self := tr.selfTimes()
	for _, l := range selfLayers {
		out.set("self_s."+l, self[l])
	}
	path := filepath.Join(o.traces, fmt.Sprintf("%s-seed%d.tsv", o.workload, o.seed))
	if err := os.MkdirAll(o.traces, 0o755); err != nil {
		return err
	}
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("  %d spans written to %s\n", len(tr.spans), path)
	return nil
}
