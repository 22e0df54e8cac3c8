package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"iscope/internal/scheduler"
	"iscope/internal/service"
	"iscope/internal/units"
	"iscope/internal/wind"
	"iscope/internal/workload"
)

// daemonTenants are daemon-stream's tenants: paper-size datacenters
// mixing the fairness and efficiency schemes.
var daemonTenants = []tenantShape{{scheme: "ScanFair"}, {scheme: "ScanEffi"}, {scheme: "ScanFair"}}

// ladder is the open-loop rate plan: a base phase at rates[0] for the
// first baseFrac of the measurement window, then one rung per further
// rate sharing the rest, all in submit requests per second summed over
// tenants.
type ladder struct {
	rates    []float64
	baseFrac float64
}

// daemonLadder's base phase gives the submit and advance percentiles
// 4,000 and 2,000 samples at --seconds 20; its top rung offers more
// than a 2-core host sustains.
var daemonLadder = ladder{rates: []float64{500, 1500, 2600, 3700}, baseFrac: 0.4}

// latencyWindow splits the base phase for the tail percentiles: each
// window's percentile is taken and the median across windows reported,
// so one stall of a shared disk moves one window, not the figure.
const latencyWindow = 2.0

// smokeLadder is the self-tests' two-phase stream.
var smokeLadder = ladder{rates: []float64{60, 120}, baseFrac: 0.5}

// plan is the ladder laid out for one run: per phase, the wall
// duration and the submits each tenant sends.
type plan struct {
	rates    []float64
	start    []float64 // phase start, seconds after the stream's
	dur      []float64
	submits  []int // per tenant
	firstSub []int // per tenant, index of the phase's first submit
	total    int   // submits per tenant
}

func (l ladder) layout(seconds float64, tenants int) plan {
	p := plan{rates: l.rates}
	at := 0.0
	for i, r := range l.rates {
		d := seconds * l.baseFrac
		if i > 0 {
			d = seconds * (1 - l.baseFrac) / float64(len(l.rates)-1)
		}
		n := int(math.Round(r / float64(tenants) * d))
		p.start = append(p.start, at)
		p.dur = append(p.dur, d)
		p.firstSub = append(p.firstSub, p.total)
		p.submits = append(p.submits, n)
		p.total += n
		at += d
	}
	return p
}

// phaseOf maps a tenant's submit index to its phase.
func (p plan) phaseOf(submit int) int {
	for i := len(p.firstSub) - 1; i >= 0; i-- {
		if submit >= p.firstSub[i] {
			return i
		}
	}
	return 0
}

// dueTimes gives every request of every tenant its send time: each
// submit opens a slot, slots are spaced evenly within their phase and
// staggered across tenants, and the advance and status read that
// follow a submit are due at even steps within its slot, so each one's
// latency from its due time is its own.
func (p plan) dueTimes(start time.Time, s *stream) [][]time.Time {
	T := float64(len(s.perTenant))
	out := make([][]time.Time, len(s.perTenant))
	for k, reqs := range s.perTenant {
		times := make([]time.Time, len(reqs))
		for i := 0; i < len(reqs); {
			n := 1 // requests in this submit's slot
			for i+n < len(reqs) && reqs[i+n].submit == reqs[i].submit {
				n++
			}
			ph := p.phaseOf(reqs[i].submit)
			gap := T / p.rates[ph]
			slot := p.start[ph] + (float64(reqs[i].submit-p.firstSub[ph])+float64(k)/T)*gap
			for j := 0; j < n; j++ {
				off := slot + float64(j)*gap/float64(n)
				times[i+j] = start.Add(time.Duration(off * float64(time.Second)))
			}
			i += n
		}
		out[k] = times
	}
	return out
}

// daemon is one running iscoped process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan error
}

// startDaemon launches iscoped on a loopback port with a state
// directory and waits until /readyz answers. The journal fsyncs on
// -wal-fsync interval (at most every 100 ms): under the default
// "always", every acknowledged request waits for an fsync, and on the
// shared disk of the 2-core host of record the base phase's submit p90
// ran 4-5x slower in 3 of 10 runs. The per-policy WAL probe keeps the
// fsync cost measured in the traced run.
func startDaemon(ctx context.Context, c *http.Client, bin, state string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", state, "-wal-fsync", "interval")
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark, even when the benchmark is
	// killed before its deferred kill runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start iscoped: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "iscoped: listening on "); ok {
				urlc <- u
				break
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		d.done <- cmd.Wait()
	}()
	select {
	case d.url = <-urlc:
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("iscoped exited before listening: %v", err)
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, fmt.Errorf("iscoped did not start")
	}
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		status, _, err := call(ctx, c, d.url, http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return d, nil
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("iscoped at %s never became ready", d.url)
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	err := <-d.done
	d.done <- err
}

func runDaemonWorkload(o options, refs digestTable) (*outcome, error) {
	ctx := context.Background()
	out := &outcome{metrics: make(map[string]float64)}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	seconds := o.seconds
	lad := daemonLadder
	if o.smoke {
		lad = smokeLadder
	}
	p := lad.layout(seconds, len(daemonTenants))
	t := time.Now()
	s, err := makeStream(o.seed, daemonTenants, p.total, p.submits[0])
	if err != nil {
		return nil, err
	}
	synthS := since(t) / float64(len(daemonTenants))
	c := loadClient()
	defer c.CloseIdleConnections()

	// Set-up, setupReps times: process start on an empty state directory
	// through tenant creation. The last daemon serves the stream.
	var setups []float64
	var d *daemon
	state := ""
	for i := 0; i < setupReps; i++ {
		state = filepath.Join(o.work, fmt.Sprintf("state%d", i))
		t := time.Now()
		id := tr.begin("setup.daemon", -1)
		d, err = startDaemon(ctx, c, o.iscoped, state)
		if err == nil {
			err = createTenants(ctx, c, d.url, s)
		}
		tr.end(id)
		if err != nil {
			if d != nil {
				d.kill()
			}
			return nil, err
		}
		setups = append(setups, since(t))
		if i < setupReps-1 {
			d.kill()
			c.CloseIdleConnections()
			if err := os.RemoveAll(state); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	out.set("setup_s", median(setups))

	// The open-loop stream, then one checkpoint while every stream is
	// still open: the journal a crash replays holds the seals and the
	// drain advances.
	start := time.Now().Add(20 * time.Millisecond)
	due := p.dueTimes(start, s)
	total := p.start[len(p.start)-1] + p.dur[len(p.dur)-1]
	id := tr.begin("service.stream", -1)
	samples := play(ctx, c, d.url, s, func(k, i int) time.Time { return due[k][i] })
	tr.end(id)
	streamWall := since(start)
	st, body, err := call(ctx, c, d.url, http.MethodPost, "/v1/checkpoint", nil)
	ckptOK := err == nil && st == http.StatusOK
	if !ckptOK {
		fmt.Printf("  checkpoint failed: %v %d %s\n", err, st, body)
	}

	// Seal, drain and fetch every tenant's result.
	var drainWall float64
	var drained int
	results := make([][]byte, len(s.specs))
	tenantOK := make([]bool, len(s.specs))
	for k, spec := range s.specs {
		base := "/v1/tenants/" + spec.Name
		ok := true
		st, body, err := call(ctx, c, d.url, http.MethodPost, base+"/seal", nil)
		ok = ok && err == nil && st == http.StatusOK
		t := time.Now()
		st, body, err = call(ctx, c, d.url, http.MethodPost, base+"/advance", []byte(`{"to":1e12}`))
		var ar service.AdvanceResponse
		ok = ok && err == nil && st == http.StatusOK && json.Unmarshal(body, &ar) == nil
		st, results[k], err = call(ctx, c, d.url, http.MethodGet, base+"/result", nil)
		drainWall += since(t)
		ok = ok && err == nil && st == http.StatusOK
		drained += ar.Fired
		tenantOK[k] = ok
		if !ok {
			fmt.Printf("  tenant %s: seal/drain/result failed: %v %s\n", spec.Name, err, body)
		}
	}
	rss := procHWM(d.cmd.Process.Pid)

	// Output check: each sealed result must be byte-equal to an
	// in-process batch run of the same jobs, and the set of results
	// must match the committed digest when the seed has one.
	refRuns, err := referenceRuns(s, tr, o.trace)
	if err != nil {
		return nil, err
	}
	for k := range s.specs {
		if !bytes.Equal(results[k], refRuns[k].json) {
			fmt.Printf("  tenant %s: daemon result differs from the in-process run\n", s.specs[k].Name)
			tenantOK[k] = false
		}
	}
	got := bytesDigest(results...)
	if want, ok := refs.ref(digestKey(o), o.seed); ok && got != want {
		fmt.Printf("  result digest %s, reference %s\n", got, want)
		for k := range tenantOK {
			tenantOK[k] = false
		}
	}
	fmt.Printf("  result digest %s\n", got)

	// Requests of a tenant whose result is wrong count as failed: their
	// acknowledgements produced the wrong state.
	rungs := make([][]float64, len(p.rates)) // per phase: submit latencies; phase 0 is the base phase
	late := make([][]float64, len(p.rates))
	firstSent := make([]time.Time, len(p.rates)) // per phase: its first submit's send
	lastDone := make([]time.Time, len(p.rates))  // per phase: its last submit's reply
	var subWin, advWin [][]float64               // base-phase latencies per window
	advBusy, advFired := 0.0, 0                  // base-phase advance service time and events
	failures := 0
	for k, ss := range samples {
		for _, sm := range ss {
			good := sm.ok() && tenantOK[k]
			out.op(good)
			if !sm.ok() && failures < 3 {
				failures++
				fmt.Printf("  request failed: status %d %s\n", sm.status, sm.failure)
			}
			ph := p.phaseOf(sm.submit)
			switch sm.kind {
			case reqSubmit:
				lat := sm.latency()
				if !good {
					lat = math.Inf(1)
				}
				rungs[ph] = append(rungs[ph], lat)
				if ph == 0 {
					w := int(sm.due.Sub(start).Seconds() / latencyWindow)
					for len(subWin) <= w {
						subWin = append(subWin, nil)
					}
					subWin[w] = append(subWin[w], lat)
				}
				if firstSent[ph].IsZero() || sm.sent.Before(firstSent[ph]) {
					firstSent[ph] = sm.sent
				}
				if sm.done.After(lastDone[ph]) {
					lastDone[ph] = sm.done
				}
				if sm.submit >= p.firstSub[ph]+p.submits[ph]*9/10 {
					late[ph] = append(late[ph], sm.sent.Sub(sm.due).Seconds())
				}
			case reqAdvance:
				if ph == 0 {
					w := int(sm.due.Sub(start).Seconds() / latencyWindow)
					for len(advWin) <= w {
						advWin = append(advWin, nil)
					}
					advWin[w] = append(advWin[w], sm.latency())
					advBusy += sm.done.Sub(sm.sent).Seconds()
					advFired += sm.fired
				}
			}
		}
	}
	allTenants := true
	for _, ok := range tenantOK {
		allTenants = allTenants && ok
	}
	out.op(ckptOK && allTenants)

	// Latency at each rate of the ladder, and max_submit_rps: the
	// submit throughput the daemon sustains on the top rung, from the
	// send of the rung's first submit to the reply to its last, so a
	// backlog left by an earlier rung does not count against it. At or
	// near the offered rate it means the daemon kept up.
	sustained := func(ph int) float64 {
		return float64(len(rungs[ph])) / lastDone[ph].Sub(firstSent[ph]).Seconds()
	}
	for i := range p.rates {
		startLate := firstSent[i].Sub(start).Seconds() - p.start[i]
		fmt.Printf("  rung %4.0f/s: %5d submits, p50 %.3f ms, p99 %.3f ms, lateness at start %.3f ms and end %.3f ms, sustained %.0f/s\n",
			p.rates[i], len(rungs[i]), 1e3*quantile(rungs[i], 0.5), 1e3*quantile(rungs[i], 0.99),
			1e3*startLate, 1e3*quantile(late[i], 1), sustained(i))
	}
	out.set("max_submit_rps", sustained(len(p.rates)-1))
	out.set("submit_p50_ms", 1e3*quantile(rungs[0], 0.5))
	out.set("submit_p90_ms", 1e3*windowed(subWin, 0.9))
	out.set("advance_p90_ms", 1e3*windowed(advWin, 0.9))
	out.set("submit_p99_ms", 1e3*windowed(subWin, 0.99))
	out.set("advance_p99_ms", 1e3*windowed(advWin, 0.99))
	out.set("sim_wall_s", drainWall)
	out.set("events_per_s", float64(drained)/drainWall)
	out.set("peak_rss_mb", rss)
	out.set("submit_samples", float64(len(rungs[0])))
	fmt.Printf("  stream %.2f s wall (planned %.2f), %d base-phase submits; base-phase advances fired %d events in %.3f s, the drain %d in %.3f s\n",
		streamWall, total, len(rungs[0]), advFired, advBusy, drained, drainWall)

	// Recovery: kill -9, restart on the same state directory, time to
	// /readyz OK (journal replay included); the restarted daemon must
	// serve the same results. recoveryReps times.
	var recov []float64
	for i := 0; i < recoveryReps; i++ {
		t := time.Now()
		id := tr.begin("service.recovery", -1)
		d.kill()
		d = nil
		c.CloseIdleConnections()
		d, err = startDaemon(ctx, c, o.iscoped, state)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		recov = append(recov, since(t))
		same := true
		for k, spec := range s.specs {
			st, body, err := call(ctx, c, d.url, http.MethodGet, "/v1/tenants/"+spec.Name+"/result", nil)
			same = same && err == nil && st == http.StatusOK && bytes.Equal(body, results[k]) && tenantOK[k]
		}
		out.op(same)
	}
	fmt.Printf("  recoveries %.3f s\n", recov)
	out.set("recovery_s", median(recov))
	if !o.trace {
		return out, nil
	}

	// Per-layer figures from the traced in-process reference runs.
	var traced, untraced []*repStats
	for _, rr := range refRuns {
		traced = append(traced, rr.traced)
		untraced = append(untraced, rr.rep)
	}
	sumOf := func(reps []*repStats, f func(*repStats) float64) float64 {
		t := 0.0
		for _, rs := range reps {
			t += f(rs)
		}
		return t
	}
	perTraced := func(f func(*repStats) float64) float64 { return sumOf(traced, f) }
	events := sumOf(traced, func(rs *repStats) float64 { return float64(rs.events) })
	batches := sumOf(traced, func(rs *repStats) float64 { return float64(rs.batches) })
	out.set("scheduler.events", events)
	out.set("scheduler.batches", batches)
	out.set("scheduler.events_per_batch", events/batches)
	medTraced := func(f func(*repStats) float64) float64 {
		xs := make([]float64, len(traced))
		for i, rs := range traced {
			xs[i] = f(rs)
		}
		return median(xs)
	}
	setBatchClasses(out, perTraced, medTraced)
	wall := perTraced(func(rs *repStats) float64 { return rs.wall })
	out.set("scheduler.result_s", perTraced(func(rs *repStats) float64 { return rs.resultS }))
	var alloc uint64
	for k, rr := range refRuns {
		a, n, d, err := rr.in.allocRun(0)
		if err != nil {
			return nil, fmt.Errorf("allocation run %s: %w", s.specs[k].Name, err)
		}
		out.op(d == rr.rep.digest && n == rr.rep.events)
		alloc += a
	}
	out.set("scheduler.alloc_bytes_per_event", float64(alloc)/events)
	out.set("trace_overhead_frac", wall/sumOf(untraced, func(rs *repStats) float64 { return rs.wall })-1)

	// Snapshot and restore on the first tenant's reference run.
	in0 := refRuns[0].in
	snap := refRuns[0].rep.snapshot
	out.set("scheduler.snapshot_s", refRuns[0].rep.snapS)
	out.set("scheduler.snapshot_bytes", float64(len(snap)))
	restore, err := in0.medianRestore(0, snap, 3, tr)
	if err != nil {
		return nil, err
	}
	out.set("scheduler.restore_s", restore)
	var splits []setupSplit
	for _, rr := range refRuns {
		splits = append(splits, rr.split)
	}
	setupMedian(out, splits)
	out.set("setup_s", median(setups))
	out.set("workload.synthesize_s", synthS)

	lc := layerCase{
		seed:     o.seed,
		procs:    tenantProcs,
		records:  refRuns[0].traced.records,
		pending0: refRuns[0].traced.pending0,
		snapshot: snap,
		jobs:     refRuns[0].in.jobs[0].trace,
		tenants:  daemonTenants,
		smoke:    o.smoke,
	}
	if err := runLayerProbes(o, lc, tr, out); err != nil {
		return nil, err
	}
	return out, finishTrace(o, tr, out)
}

// windowed is the median over windows of each window's q-quantile.
func windowed(wins [][]float64, q float64) float64 {
	var qs []float64
	for _, w := range wins {
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

func jobsOf(subs []service.JobSubmission) []workload.Job {
	jobs := make([]workload.Job, len(subs))
	for i := range subs {
		jobs[i] = subs[i].Job()
	}
	return jobs
}

// refRun is one tenant's in-process batch run over the jobs the
// daemon received.
type refRun struct {
	in     *engineInput
	split  setupSplit
	rep    *repStats // untraced, with a mid-run snapshot
	traced *repStats // traced, with batch records (traced runs only)
	json   []byte    // Result as the daemon encodes it
}

// referenceRuns rebuilds each tenant the way the daemon does (fleet
// and wind derived from its spec) and runs its jobs as one batch.
func referenceRuns(s *stream, tr *tracer, traced bool) ([]refRun, error) {
	out := make([]refRun, len(s.specs))
	for k, spec := range s.specs {
		var sp setupSplit
		t := time.Now()
		fleet, err := scheduler.BuildFleet(scheduler.DefaultFleetSpec(spec.FleetSeed, spec.Procs))
		sp.fleet = since(t)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		w, err := wind.Generate(wind.DefaultConfig(spec.Wind.Seed, units.Days(spec.Wind.Days)))
		if err != nil {
			return nil, err
		}
		w = w.Scale(spec.Wind.MeanFrac * float64(fleet.PeakDemand()) / float64(w.Mean()))
		sp.wind = since(t)
		sch, _ := scheduler.SchemeByName(spec.Scheme)
		jobs := &workload.Trace{Jobs: jobsOf(s.jobs[k])}
		in := &engineInput{
			shape: engineShape{scheme: spec.Scheme, procs: spec.Procs},
			fleet: fleet,
			sch:   sch,
			cfg:   scheduler.RunConfig{Seed: spec.Seed, Wind: w, Workers: spec.Workers},
			jobs:  []jobSet{newJobSet(jobs)},
		}
		var last units.Seconds
		if n := len(jobs.Jobs); n > 0 {
			last = jobs.Jobs[n-1].Submit
		}
		rs, err := in.runRep(0, repOpts{snapAt: last / 2})
		if err != nil {
			return nil, fmt.Errorf("reference run %s: %w", spec.Name, err)
		}
		rr := refRun{in: in, split: sp, rep: rs}
		if traced {
			if rr.traced, err = in.runRep(0, repOpts{tr: tr, record: true}); err != nil {
				return nil, err
			}
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(rs.result); err != nil {
			return nil, err
		}
		rr.json = buf.Bytes()
		out[k] = rr
	}
	return out, nil
}
