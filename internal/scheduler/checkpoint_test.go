package scheduler

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"iscope/internal/battery"
	"iscope/internal/brownout"
	"iscope/internal/checkpoint"
	"iscope/internal/invariants"
	"iscope/internal/units"
	"iscope/internal/workload"
)

// snapCollector is a checkpoint sink that keeps every snapshot.
type snapCollector struct{ snaps [][]byte }

func (c *snapCollector) sink(data []byte) error {
	c.snaps = append(c.snaps, append([]byte(nil), data...))
	return nil
}

// TestResumeDeterminism is the tentpole property test: for every
// scheme, multiple seeds, with and without fault injection, (a) a run
// with periodic checkpointing produces results bit-identical to an
// unchecked run (snapshots are transparent), and (b) a run resumed
// from a mid-simulation snapshot finishes with results bit-identical
// to the uninterrupted run.
func TestResumeDeterminism(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	for _, withFaults := range []bool{false, true} {
		for seed := uint64(0); seed < 3; seed++ {
			w := testWind(t, fleet, 300+seed)
			for _, sch := range Schemes() {
				name := sch.Name
				if withFaults {
					name += "+faults"
				}
				base := RunConfig{Seed: seed, Jobs: jobs, Wind: w}
				if withFaults {
					base.Faults = denseFaults()
				}
				baseline, err := Run(fleet, sch, base)
				if err != nil {
					t.Fatalf("seed %d %s: baseline: %v", seed, name, err)
				}

				col := &snapCollector{}
				ck := base
				ck.Checkpoint = &CheckpointConfig{Every: units.Hours(3), Sink: col.sink}
				checked, err := Run(fleet, sch, ck)
				if err != nil {
					t.Fatalf("seed %d %s: checkpointed run: %v", seed, name, err)
				}
				if !reflect.DeepEqual(baseline, checked) {
					t.Fatalf("seed %d %s: checkpointing perturbed the run:\nbaseline %+v\nchecked  %+v", seed, name, baseline, checked)
				}
				if len(col.snaps) == 0 {
					t.Fatalf("seed %d %s: no snapshots emitted", seed, name)
				}

				re := base
				re.Resume = col.snaps[len(col.snaps)/2]
				resumed, err := Run(fleet, sch, re)
				if err != nil {
					t.Fatalf("seed %d %s: resumed run: %v", seed, name, err)
				}
				if !reflect.DeepEqual(baseline, resumed) {
					t.Fatalf("seed %d %s: resume diverged:\nbaseline %+v\nresumed  %+v", seed, name, baseline, resumed)
				}
			}
		}
	}
}

// TestResumeDeterminismKitchenSink exercises every optional subsystem
// at once — battery, sampler trace, online profiling, rebalancing,
// random COPs, faults, the brownout ladder, and a fail-fast invariant
// monitor — and still demands bit-identical resume. The monitor's
// check/violation counters land in the Result, so DeepEqual also
// proves the restored monitor replays exactly.
func TestResumeDeterminismKitchenSink(t *testing.T) {
	fleet := testFleet(t, 24)
	jobs := testJobs(t, 77, 60, 0.4)
	w := testWind(t, fleet, 400)
	batt := battery.DefaultSpec(units.FromKWh(30))
	sch, _ := SchemeByName("ScanEffi")
	base := RunConfig{
		Seed:            5,
		Jobs:            jobs,
		Wind:            w,
		Battery:         &batt,
		SampleInterval:  units.Minutes(30),
		Online:          &OnlineProfiling{},
		EnableRebalance: true,
		RandomCOP:       true,
		Faults:          denseFaults(),
		// Low thresholds and short dwells so the ladder actually climbs
		// (and unwinds) inside the test horizon.
		Brownout: &brownout.Config{
			Thresholds: [brownout.NumStages - 1]float64{0.05, 0.15, 0.3, 0.5},
			DwellUp:    units.Minutes(5),
			DwellDown:  units.Minutes(10),
		},
		Invariants: &invariants.Config{Action: invariants.FailFast},
	}
	baseline, err := Run(fleet, sch, base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if baseline.Brownout.MaxStage == 0 {
		t.Fatalf("brownout ladder never engaged, so resume would not cover it: %+v", baseline.Brownout)
	}
	if baseline.Invariants.Checks == 0 {
		t.Fatal("invariant monitor ran no checks")
	}
	col := &snapCollector{}
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(2), Sink: col.sink}
	checked, err := Run(fleet, sch, ck)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if !reflect.DeepEqual(baseline, checked) {
		t.Fatal("checkpointing perturbed the kitchen-sink run")
	}
	if len(col.snaps) < 2 {
		t.Fatalf("want several snapshots, got %d", len(col.snaps))
	}
	for i, snap := range col.snaps {
		re := base
		re.Resume = snap
		resumed, err := Run(fleet, sch, re)
		if err != nil {
			t.Fatalf("resume from snapshot %d: %v", i, err)
		}
		if !reflect.DeepEqual(baseline, resumed) {
			t.Fatalf("resume from snapshot %d diverged", i)
		}
	}
}

// TestResumeDeterminismUtilityOnly covers the aux-tick path: no wind
// trace, rebalancing enabled.
func TestResumeDeterminismUtilityOnly(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 11, 40, 0.5)
	sch, _ := SchemeByName("BinEffi")
	base := RunConfig{Seed: 2, Jobs: jobs, EnableRebalance: true}
	baseline, err := Run(fleet, sch, base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	col := &snapCollector{}
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(4), Sink: col.sink}
	if _, err := Run(fleet, sch, ck); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(col.snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	re := base
	re.Resume = col.snaps[len(col.snaps)-1]
	resumed, err := Run(fleet, sch, re)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !reflect.DeepEqual(baseline, resumed) {
		t.Fatal("utility-only resume diverged")
	}
}

// TestCancelWritesFinalCheckpoint verifies the cooperative-cancel
// contract: a canceled run returns the context error, flushes a final
// snapshot, and that snapshot resumes to results bit-identical to an
// uninterrupted run.
func TestCancelWritesFinalCheckpoint(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	w := testWind(t, fleet, 303)
	sch, _ := SchemeByName("ScanFair")
	base := RunConfig{Seed: 9, Jobs: jobs, Wind: w, Faults: denseFaults()}
	baseline, err := Run(fleet, sch, base)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &snapCollector{}
	periodic := 0
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(2), Sink: func(d []byte) error {
		periodic++
		if periodic == 2 {
			cancel() // interrupt mid-simulation
		}
		return col.sink(d)
	}}
	_, err = RunCtx(ctx, fleet, sch, ck)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	// Two periodic snapshots plus the final flush on cancellation.
	if len(col.snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3 (2 periodic + 1 final)", len(col.snaps))
	}

	re := base
	re.Resume = col.snaps[len(col.snaps)-1]
	resumed, err := Run(fleet, sch, re)
	if err != nil {
		t.Fatalf("resume after cancel: %v", err)
	}
	if !reflect.DeepEqual(baseline, resumed) {
		t.Fatal("resume after cancel diverged from the uninterrupted run")
	}
}

// TestCancelWithoutCheckpointConfig: cancellation must work (and
// return promptly with the context error) even when no checkpoint sink
// is configured.
func TestCancelWithoutCheckpointConfig(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, _ := SchemeByName("BinRan")
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the first event
	_, err := RunCtx(ctx, fleet, sch, RunConfig{Seed: 1, Jobs: jobs})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestResumeRejectsMismatchedRun(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	w := testWind(t, fleet, 305)
	sch, _ := SchemeByName("BinEffi")
	base := RunConfig{Seed: 3, Jobs: jobs, Wind: w}
	col := &snapCollector{}
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(4), Sink: col.sink}
	if _, err := Run(fleet, sch, ck); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(col.snaps) == 0 {
		t.Fatal("no snapshots")
	}
	snap := col.snaps[0]

	// Different seed.
	re := base
	re.Seed = 4
	re.Resume = snap
	if _, err := Run(fleet, sch, re); err == nil {
		t.Error("resume with a different seed accepted")
	}
	// Different scheme.
	other, _ := SchemeByName("BinRan")
	re = base
	re.Resume = snap
	if _, err := Run(fleet, other, re); err == nil {
		t.Error("resume under a different scheme accepted")
	}
	// Different config knob (hash-guarded).
	re = base
	re.EnableRebalance = true
	re.Resume = snap
	if _, err := Run(fleet, sch, re); err == nil {
		t.Error("resume with a different config accepted")
	}
}

func TestResumeRejectsCorruptSnapshots(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, _ := SchemeByName("BinEffi")
	base := RunConfig{Seed: 3, Jobs: jobs}
	col := &snapCollector{}
	ck := base
	ck.Checkpoint = &CheckpointConfig{Every: units.Hours(4), Sink: col.sink}
	if _, err := Run(fleet, sch, ck); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(col.snaps) == 0 {
		t.Fatal("no snapshots")
	}
	snap := col.snaps[0]

	truncated := snap[:len(snap)/2]
	re := base
	re.Resume = truncated
	if _, err := Run(fleet, sch, re); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Errorf("truncated snapshot: got %v, want ErrTruncated", err)
	}

	flipped := append([]byte(nil), snap...)
	flipped[len(flipped)/2] ^= 0x40
	re.Resume = flipped
	if _, err := Run(fleet, sch, re); !errors.Is(err, checkpoint.ErrChecksum) {
		t.Errorf("corrupt snapshot: got %v, want ErrChecksum", err)
	}

	// The future-version envelope is kept well-formed (checksum
	// recomputed), so rejection provably happens on the version field,
	// not as a checksum side effect.
	future := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint16(future[4:6], checkpoint.Version+1)
	body := future[:len(future)-4]
	binary.LittleEndian.PutUint32(future[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	re.Resume = future
	if _, err := Run(fleet, sch, re); !errors.Is(err, checkpoint.ErrVersion) {
		t.Errorf("future-version snapshot: got %v, want ErrVersion", err)
	}
}

func TestCheckpointSinkErrorFailsRun(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, _ := SchemeByName("BinEffi")
	boom := errors.New("disk full")
	cfg := RunConfig{Seed: 1, Jobs: jobs,
		Checkpoint: &CheckpointConfig{Every: units.Hours(1), Sink: func([]byte) error { return boom }}}
	if _, err := Run(fleet, sch, cfg); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the sink's error", err)
	}
}

func TestCheckpointRequiresSink(t *testing.T) {
	fleet := testFleet(t, 16)
	jobs := testJobs(t, 42, 40, 0.3)
	sch, _ := SchemeByName("BinEffi")
	cfg := RunConfig{Seed: 1, Jobs: jobs, Checkpoint: &CheckpointConfig{Every: units.Hours(1)}}
	if _, err := Run(fleet, sch, cfg); err == nil {
		t.Fatal("checkpoint config without sink accepted")
	}
}

// TestConfigHashMemo: the memoized checkpoint fingerprint equals a
// fresh computation after every way a run's job set can change — an
// injected job, an injection rolled back (followed by a different job
// at the same index), and a restore that extends the configured jobs
// with the snapshot's streamed ones.
func TestConfigHashMemo(t *testing.T) {
	fleet := testFleet(t, 8)
	jobs := testJobs(t, 81, 10, 0.3)
	cfg := RunConfig{Seed: 4, Jobs: jobs, Wind: testWind(t, fleet, 82)}
	check := func(s *sim, when string) {
		t.Helper()
		if got, want := s.configHash(), s.hashConfig(); got != want {
			t.Fatalf("%s: memoized config hash %x, fresh %x", when, got, want)
		}
	}
	streamed := func(i int) workload.Job {
		return workload.Job{ID: 100 + i, Procs: 1 + i%3, Runtime: units.Hours(1 + float64(i)), Boundness: 0.5}
	}

	a, err := NewStepper(fleet, Schemes()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	check(a.s, "construction")
	if _, err := a.AdvanceTo(units.Hours(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.InjectJob(a.Now()+units.Hours(1), streamed(i)); err != nil {
			t.Fatal(err)
		}
		check(a.s, fmt.Sprintf("InjectJob %d", i))
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	resume := cfg
	resume.Resume = snap
	b, err := NewStepper(fleet, Schemes()[0], resume)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer b.Close()
	if len(b.s.states) != len(jobs.Jobs)+3 {
		t.Fatalf("restore left %d jobs, want %d", len(b.s.states), len(jobs.Jobs)+3)
	}
	check(b.s, "restore extending the job set")
	if b.s.configHash() != a.s.configHash() {
		t.Fatal("restored run's config hash differs from the snapshotting run's")
	}

	// An engine counter below the next arrival's sequence number makes
	// InjectTag refuse after InjectJob has appended the job, forcing the
	// rollback path.
	s := b.s
	s.eng.Reset(s.eng.Now(), 0)
	if _, err := b.InjectJob(b.Now()+units.Hours(1), streamed(7)); err == nil {
		t.Fatal("InjectJob beyond the engine counter succeeded")
	}
	check(s, "rolled-back InjectJob")
	s.eng.SkipTo(arrivalSeqBase)
	if _, err := b.InjectJob(b.Now()+units.Hours(1), streamed(8)); err != nil {
		t.Fatal(err)
	}
	check(s, "InjectJob after a rollback")
}
