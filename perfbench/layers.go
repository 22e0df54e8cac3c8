package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"iscope/internal/checkpoint"
	"iscope/internal/service"
	"iscope/internal/simulator"
	"iscope/internal/telemetry"
	"iscope/internal/units"
	"iscope/internal/wal"
	"iscope/internal/workload"
)

// layerCase carries what the per-layer probes take from the traced
// workload run.
type layerCase struct {
	seed     uint64
	procs    int // fleet size for the telemetry model
	records  []batchRec
	pending0 int // pending events before the first recorded batch
	snapshot []byte
	jobs     *workload.Trace // source of the WAL payloads
	tenants  []tenantShape   // tenants of the in-process service replay
	smoke    bool
}

// runLayerProbes calls each layer directly, shaped by the workload.
func runLayerProbes(o options, lc layerCase, tr *tracer, out *outcome) error {
	ns, front := calendarReplay(lc.records, lc.pending0, lc.seed, tr)
	out.set("simulator.replay_ns_per_event", ns)
	out.set("simulator.front_bucket_push_frac", front)

	us, err := telemetrySample(lc.procs, lc.seed, tr)
	if err != nil {
		return fmt.Errorf("telemetry probe: %w", err)
	}
	out.set("telemetry.sample_us", us)

	writes, err := writeSnapshotTimed(o.work, lc.snapshot, 5, tr)
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	out.set("checkpoint.write_ms", 1e3*median(writes))

	if err := walProbe(o.work, lc, tr, out); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	if err := serviceProbe(o.work, lc, tr, out); err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	return nil
}

// replayGrid is the engine's calendar grid: the 10-minute wind interval.
const replayGrid units.Seconds = 600

// calendarReplay drives a calendar engine through a schedule derived
// from a recorded run's per-batch (time, fired, pending) triples.
// Arrivals are all queued up front, as the scheduler's loader queues
// them. Every other event is pushed by some earlier batch: batch i
// pushes pending[i] - pending[i-1] + fired[i] events, and each fired
// non-arrival event is assigned to a push drawn at random (seeded)
// from those made before its batch; the counts guarantee one is always
// available. Pushes left over (stale events a finished run leaves
// queued) target a day after the last batch. It returns nanoseconds
// per fired event (median of five replays) and the share of pushes
// that land in the front bucket, the grid interval the clock is
// draining.
func calendarReplay(recs []batchRec, pending0 int, seed uint64, tr *tracer) (nsPerEvent, frontFrac float64) {
	if len(recs) == 0 {
		return 0, 0
	}
	rnd := rand.New(rand.NewPCG(seed, 0x63616c))
	var initial []units.Seconds
	arrivals := 0
	for _, r := range recs {
		for i := 0; i < r.arrivals; i++ {
			initial = append(initial, r.at)
		}
		arrivals += r.arrivals
	}
	// avail holds the pushing batch of every push not yet matched to a
	// fired event; -1 marks an event queued before the first batch.
	var avail []int
	for i := arrivals; i < pending0; i++ {
		avail = append(avail, -1)
	}
	pushes := make([][]units.Seconds, len(recs))
	prev := pending0
	for i, r := range recs {
		for k := r.arrivals; k < r.fired && len(avail) > 0; k++ {
			j := rnd.IntN(len(avail))
			b := avail[j]
			avail[j] = avail[len(avail)-1]
			avail = avail[:len(avail)-1]
			if b < 0 {
				initial = append(initial, r.at)
			} else {
				pushes[b] = append(pushes[b], r.at)
			}
		}
		for q := r.pending - prev + r.fired; q > 0; q-- {
			avail = append(avail, i)
		}
		prev = r.pending
	}
	far := recs[len(recs)-1].at + 86400
	for _, b := range avail {
		if b < 0 {
			initial = append(initial, far)
		} else {
			pushes[b] = append(pushes[b], far)
		}
	}

	var times []float64
	fired, front, pushed := 0, 0, 0
	for rep := 0; rep < 5; rep++ {
		eng := simulator.NewCalendarWithCapacity[uint32](replayGrid, len(initial))
		eng.SetDispatcher(func(uint32, units.Seconds) {})
		for _, at := range initial {
			_ = eng.ScheduleTag(at, 0)
		}
		fired, front, pushed = 0, 0, 0
		id := tr.begin("simulator.replay", -1)
		t := time.Now()
		r := 0
		for eng.Pending() > 0 && r < len(recs) {
			fired += eng.StepBatch(nil)
			now := eng.Now()
			for ; r < len(recs) && recs[r].at <= now; r++ {
				for _, at := range pushes[r] {
					at = max(at, now)
					if int64(at/replayGrid) == int64(now/replayGrid) {
						front++
					}
					pushed++
					_ = eng.ScheduleTag(at, 0)
				}
			}
		}
		times = append(times, since(t))
		tr.end(id)
	}
	if fired == 0 || pushed == 0 {
		return 0, 0
	}
	return 1e9 * median(times) / float64(fired), float64(front) / float64(pushed)
}

// telemetrySample compiles the default sensor model for the fleet and
// times Model.Sample over a day of minute-spaced readings; it returns
// microseconds per Sample call (median of five passes).
func telemetrySample(procs int, seed uint64, tr *tracer) (float64, error) {
	id := tr.begin("telemetry.compile", -1)
	spec := telemetry.DefaultSpec()
	spec.Horizon = units.Days(1)
	m, err := telemetry.Compile(spec, procs, seed)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	truth := make([]float64, m.Nodes())
	for i := range truth {
		truth[i] = 400 + float64(i%7)*25
	}
	readings := make([]float64, m.Nodes())
	const perPass = 288
	var xs []float64
	now := units.Seconds(0)
	for pass := 0; pass < 5; pass++ {
		id := tr.begin("telemetry.sample", -1)
		t := time.Now()
		for i := 0; i < perPass; i++ {
			now += 60
			m.Sample(now, truth, readings)
		}
		xs = append(xs, since(t)/perPass)
		tr.end(id)
	}
	return 1e6 * median(xs), nil
}

// writeSnapshotTimed times checkpoint.WriteBytes of data into dir.
func writeSnapshotTimed(dir string, data []byte, n int, tr *tracer) ([]float64, error) {
	var xs []float64
	for i := 0; i < n; i++ {
		t := time.Now()
		id := tr.begin("checkpoint.write", -1)
		err := checkpoint.WriteBytes(filepath.Join(dir, fmt.Sprintf("snap-%d.ckpt", i%2)), data)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		xs = append(xs, since(t))
	}
	return xs, nil
}

// walProbe appends job-batch payloads the size of daemon-stream's
// submit records under each fsync policy, on the filesystem of the
// benchmark's state directories, then reopens and replays one journal.
func walProbe(dir string, lc layerCase, tr *tracer, out *outcome) error {
	jobs := lc.jobs.Jobs
	var payloads [][]byte
	for i := 0; i+jobsPerSubmit <= len(jobs) && len(payloads) < 256; i += jobsPerSubmit {
		batch := make([]service.JobSubmission, jobsPerSubmit)
		for k, j := range jobs[i : i+jobsPerSubmit] {
			batch[k] = service.JobSubmission{ID: j.ID, At: float64(j.Submit), Runtime: float64(j.Runtime),
				Procs: j.Procs, Boundness: j.Boundness, Deadline: float64(j.Deadline)}
		}
		p, err := json.Marshal(service.SubmitRequest{Jobs: batch})
		if err != nil {
			return err
		}
		payloads = append(payloads, p)
	}
	if len(payloads) == 0 {
		return fmt.Errorf("no payloads")
	}
	counts := map[string]int{"always": 300, "interval": 3000, "off": 3000}
	if lc.smoke {
		counts = map[string]int{"always": 20, "interval": 100, "off": 100}
	}
	var replayDir string
	for _, name := range walPolicies {
		policy, err := wal.ParseSyncPolicy(name)
		if err != nil {
			return err
		}
		jdir := filepath.Join(dir, "wal-"+name)
		j, err := wal.Open(jdir, wal.Options{Policy: policy})
		if err != nil {
			return err
		}
		xs := make([]float64, 0, counts[name])
		id := tr.begin("wal.append."+name, -1)
		for i := 0; i < counts[name]; i++ {
			t := time.Now()
			if _, err := j.Append(payloads[i%len(payloads)]); err != nil {
				j.Close()
				return err
			}
			xs = append(xs, since(t))
		}
		tr.end(id)
		if err := j.Close(); err != nil {
			return err
		}
		out.set("wal.append_p50_us."+name, 1e6*quantile(xs, 0.5))
		out.set("wal.append_p99_us."+name, 1e6*quantile(xs, 0.99))
		if name == "off" {
			replayDir = jdir
		}
	}
	var replays []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		id := tr.begin("wal.replay", -1)
		j, err := wal.Open(replayDir, wal.Options{Policy: wal.SyncOff})
		if err != nil {
			return err
		}
		n := 0
		err = j.Replay(0, func(uint64, []byte) error { n++; return nil })
		j.Close()
		tr.end(id)
		if err != nil {
			return err
		}
		if n != counts["off"] {
			return fmt.Errorf("replayed %d of %d records", n, counts["off"])
		}
		replays = append(replays, since(t))
	}
	out.set("wal.replay_s", median(replays))
	return nil
}

// serviceProbe replays a stream of the workload's tenants closed-loop
// against an in-process service.Server behind a loopback listener,
// timing each handler call; it checkpoints halfway, finishes the
// stream, and times LoadAll (checkpoint restore plus journal replay)
// into a fresh server.
func serviceProbe(dir string, lc layerCase, tr *tracer, out *outcome) error {
	submits := 400
	if lc.smoke {
		submits = 24
	}
	s, err := makeStream(lc.seed, lc.tenants, submits, submits)
	if err != nil {
		return err
	}
	state := filepath.Join(dir, "svc")
	srv := service.NewWithOptions(service.Options{StateDir: state})
	var mu sync.Mutex
	handlerDur := map[string][]float64{}
	h := srv.Handler()
	timed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := time.Now()
		h.ServeHTTP(w, r)
		d := since(t)
		route := "other"
		switch {
		case strings.HasSuffix(r.URL.Path, "/jobs"):
			route = "submit"
		case strings.HasSuffix(r.URL.Path, "/advance"):
			route = "advance"
		}
		mu.Lock()
		handlerDur[route] = append(handlerDur[route], d)
		mu.Unlock()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: timed}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop := func() {
		_ = hs.Close()
		<-served
		srv.Close()
	}
	ctx := context.Background()
	base := "http://" + ln.Addr().String()
	c := loadClient()
	defer c.CloseIdleConnections()
	if err := createTenants(ctx, c, base, s); err != nil {
		stop()
		return err
	}
	id := tr.begin("service.replay", -1)
	first, second := s.split()
	samples := play(ctx, c, base, first, nil)
	t := time.Now()
	ck := tr.begin("service.checkpoint", id)
	_, err = srv.Checkpoint()
	tr.end(ck)
	ckptS := since(t)
	if err != nil {
		tr.end(id)
		stop()
		return err
	}
	samples = append(samples, play(ctx, c, base, second, nil)...)
	tr.end(id)
	stop()
	rejects := 0
	for _, ss := range samples {
		for _, sm := range ss {
			if !sm.ok() {
				rejects++
			}
		}
	}

	srv2 := service.NewWithOptions(service.Options{StateDir: state})
	t = time.Now()
	id = tr.begin("service.loadall", -1)
	n, err := srv2.LoadAll(state)
	tr.end(id)
	loadS := since(t)
	srv2.Close()
	if err != nil {
		return err
	}
	if n != len(s.specs) {
		return fmt.Errorf("LoadAll restored %d of %d tenants", n, len(s.specs))
	}
	mu.Lock()
	defer mu.Unlock()
	out.set("service.submit_handler_p99_us", 1e6*quantile(handlerDur["submit"], 0.99))
	out.set("service.advance_handler_p99_us", 1e6*quantile(handlerDur["advance"], 0.99))
	out.set("service.checkpoint_s", ckptS)
	out.set("service.loadall_s", loadS)
	out.set("service.rejects", float64(rejects))
	return nil
}

// split cuts every tenant's request sequence in half.
func (s *stream) split() (*stream, *stream) {
	a := &stream{specs: s.specs, jobs: s.jobs}
	b := &stream{specs: s.specs, jobs: s.jobs}
	for _, reqs := range s.perTenant {
		h := len(reqs) / 2
		a.perTenant = append(a.perTenant, reqs[:h])
		b.perTenant = append(b.perTenant, reqs[h:])
	}
	return a, b
}
