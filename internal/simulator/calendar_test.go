package simulator

import (
	"fmt"
	"math"
	"testing"

	"iscope/internal/rng"
	"iscope/internal/units"
)

// The calendar backend's only contract is bit-identical pop order with
// the plain heap engine. These tests drive both engines through the
// same randomized schedules — on-grid timestamps, off-grid jitter,
// events beyond the ring horizon (overflow heap), same-timestamp ties
// resolved by seq, and mid-run scheduling from callbacks — and require
// the fired (at, seq) streams to match exactly.

const testGrid = units.Seconds(600) // the scheduler's 10-minute supply grid

type fired struct {
	at  units.Seconds
	seq uint64
	tag int
}

// driveMode selects how drive pulls events out of the engine.
type driveMode struct {
	name      string
	batch     bool // mix StepBatch calls in with Step
	roundTrip bool // checkpoint round trips between calls, mid-drain
}

var driveModes = []driveMode{
	{name: "step"},
	{name: "batch", batch: true},
	{name: "roundtrip", roundTrip: true},
	{name: "batch+roundtrip", batch: true, roundTrip: true},
}

// drive schedules the same event mix into eng and returns the fired
// stream. Each event may reschedule a follow-up, exercising pushes into
// already-drained and future buckets, and below the tail of the bucket
// being drained (the late heap). The handlers draw from their own
// stream, so how mode splits the drain into calls cannot change what
// they schedule.
func drive(t *testing.T, eng *Engine[int], seed uint64, n int, mode driveMode) []fired {
	t.Helper()
	var out []fired
	r := rng.New(seed, 7)
	followups := 0
	eng.SetDispatcher(func(tag int, now units.Seconds) {
		out = append(out, fired{now, eng.Seq(), tag})
		// A third of events chain a follow-up, sometimes far enough
		// ahead to land in the overflow heap.
		if r.IntN(3) == 0 && followups < n {
			followups++
			delay := units.Seconds(r.IntN(5)) * testGrid
			switch r.IntN(4) {
			case 0:
				delay += units.Seconds(r.Uniform(0, float64(testGrid))) // off-grid
			case 1:
				delay = units.Seconds(r.Uniform(0, float64(testGrid)/16)) // sub-grid: below the open bucket's tail
			}
			if r.IntN(10) == 0 {
				delay += units.Seconds(calWindow+3) * testGrid // beyond horizon
			}
			if err := eng.AfterTag(delay, 1000+followups); err != nil {
				t.Fatalf("AfterTag: %v", err)
			}
		}
	})
	for i := 0; i < n; i++ {
		at := units.Seconds(r.IntN(20)) * testGrid // heavy same-bucket clustering
		switch r.IntN(5) {
		case 0:
			at += units.Seconds(r.Uniform(0, float64(testGrid))) // off-grid
		case 1:
			at += units.Seconds(calWindow+r.IntN(8)) * testGrid // overflow
		}
		if err := eng.ScheduleTag(at, i); err != nil {
			t.Fatalf("ScheduleTag: %v", err)
		}
	}
	d := rng.New(seed, 13)
	for eng.Pending() > 0 {
		if mode.roundTrip && d.IntN(40) == 0 {
			roundTrip(t, eng)
		}
		if mode.batch && d.IntN(2) == 0 {
			eng.StepBatch(nil)
		} else {
			eng.Step()
		}
	}
	return out
}

// roundTrip checkpoints eng's queue and restores it into the same
// engine, the way the scheduler's snapshot/resume does.
func roundTrip(t testing.TB, eng *Engine[int]) {
	t.Helper()
	evs := eng.PendingEvents()
	eng.Reset(eng.Now(), eng.Seq())
	for _, ev := range evs {
		if err := eng.InjectTag(ev.At, ev.Seq, ev.Tag); err != nil {
			t.Fatalf("InjectTag(%v,%d): %v", ev.At, ev.Seq, err)
		}
	}
}

func sameStream(t testing.TB, label string, want, got []fired) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: heap fired %d events, calendar %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: event %d diverges: heap %+v calendar %+v", label, i, want[i], got[i])
		}
	}
}

func TestCalendarMatchesHeapPopOrder(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		want := drive(t, New[int](), seed, 400, driveModes[0])
		for _, mode := range driveModes {
			cal := NewCalendarWithCapacity[int](testGrid, 64)
			if cal.cal == nil {
				t.Fatal("calendar backend not installed")
			}
			got := drive(t, cal, seed, 400, mode)
			sameStream(t, fmt.Sprintf("seed %d %s", seed, mode.name), want, got)
		}
	}
}

// TestCalendarSortsOncePerOpening pins the late heap's point: pushes
// below the tail of a bucket being drained never unsort its run, so a
// bucket sorts at most once per time it is opened. A bucket opens at
// most once between turning non-empty and draining, so the bound is
// checked against those fills, independently of the open flag.
func TestCalendarSortsOncePerOpening(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		eng := NewCalendarWithCapacity[int](testGrid, 64)
		drive(t, eng, seed, 400, driveModes[1])
		c := eng.cal
		if c.sorts > c.fills {
			t.Fatalf("seed %d: %d sorts for %d bucket fills", seed, c.sorts, c.fills)
		}
		if c.latePushes == 0 {
			t.Fatalf("seed %d: no push landed in a late heap", seed)
		}
	}
}

func TestCalendarSameTimestampSeqTieBreak(t *testing.T) {
	eng := NewCalendarWithCapacity[int](testGrid, 8)
	var order []int
	eng.SetDispatcher(func(tag int, _ units.Seconds) { order = append(order, tag) })
	// All at one timestamp: must fire in insertion order.
	for i := 0; i < 50; i++ {
		if err := eng.ScheduleTag(testGrid*3, i); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i, tag := range order {
		if tag != i {
			t.Fatalf("tie-break violated at %d: got tag %d", i, tag)
		}
	}
}

func TestCalendarPendingAndPeek(t *testing.T) {
	eng := NewCalendarWithCapacity[int](testGrid, 8)
	eng.SetDispatcher(func(int, units.Seconds) {})
	if _, _, ok := eng.PeekNext(); ok {
		t.Fatal("PeekNext on empty engine reported an event")
	}
	// One in-ring, one overflow: Pending counts both, PeekNext sees the ring one.
	if err := eng.ScheduleTag(testGrid*2, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.ScheduleTag(testGrid*(calWindow+5), 1); err != nil {
		t.Fatal(err)
	}
	if got := eng.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	if at, _, ok := eng.PeekNext(); !ok || at != testGrid*2 {
		t.Fatalf("PeekNext = %v,%v want %v,true", at, ok, testGrid*2)
	}
	if !eng.Step() {
		t.Fatal("Step on non-empty engine returned false")
	}
	// Only the overflow event remains; PeekNext must surface it.
	if at, _, ok := eng.PeekNext(); !ok || at != testGrid*(calWindow+5) {
		t.Fatalf("PeekNext after drain = %v,%v", at, ok)
	}
	if got := eng.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1", got)
	}
}

func TestCalendarResetAndInject(t *testing.T) {
	eng := NewCalendarWithCapacity[int](testGrid, 8)
	eng.SetDispatcher(func(int, units.Seconds) {})
	for i := 0; i < 10; i++ {
		if err := eng.ScheduleTag(units.Seconds(i)*testGrid, i); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunUntil(testGrid * 4)
	eng.Reset(testGrid*4, 100)
	if got := eng.Pending(); got != 0 {
		t.Fatalf("Pending after Reset = %d, want 0", got)
	}
	// Inject a checkpointed mix: ring and overflow, out-of-order seqs.
	inject := []struct {
		at  units.Seconds
		seq uint64
	}{
		{testGrid * 6, 42},
		{testGrid * 5, 41},
		{testGrid * 5, 17}, // same timestamp, earlier seq: must pop first
		{testGrid * (calWindow + 10), 50},
	}
	for _, iv := range inject {
		if err := eng.InjectTag(iv.at, iv.seq, 0); err != nil {
			t.Fatalf("InjectTag(%v,%d): %v", iv.at, iv.seq, err)
		}
	}
	var got []uint64
	for eng.Pending() > 0 {
		_, seq, _ := eng.PeekNext()
		got = append(got, seq)
		eng.Step()
	}
	want := []uint64{17, 41, 42, 50}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d: seq %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCalendarNonPositiveGridDegradesToHeap(t *testing.T) {
	eng := NewCalendarWithCapacity[int](0, 8)
	if eng.cal != nil {
		t.Fatal("zero grid should not install a calendar")
	}
}

func TestCalendarLongHorizonProgress(t *testing.T) {
	// Events spread over many ring wraps: the scan pointer must follow
	// the clock without revisiting drained buckets incorrectly.
	eng := NewCalendarWithCapacity[int](testGrid, 8)
	var fired int
	eng.SetDispatcher(func(int, units.Seconds) { fired++ })
	last := units.Seconds(0)
	for i := 0; i < 5*calWindow; i += 97 {
		at := units.Seconds(i) * testGrid
		if err := eng.ScheduleTag(at, i); err != nil {
			t.Fatal(err)
		}
		last = at
	}
	eng.Run()
	if eng.Now() != last {
		t.Fatalf("clock at %v, want %v", eng.Now(), last)
	}
	if eng.Pending() != 0 || fired == 0 {
		t.Fatalf("pending %d fired %d", eng.Pending(), fired)
	}
}

func TestCalendarPendingEventsSorted(t *testing.T) {
	eng := NewCalendarWithCapacity[int](testGrid, 8)
	eng.SetDispatcher(func(int, units.Seconds) {})
	r := rng.New(3, 11)
	for i := 0; i < 200; i++ {
		at := units.Seconds(r.IntN(2 * calWindow))
		at *= testGrid / 4 // quarter-grid offsets, some overflow
		if err := eng.ScheduleTag(at, i); err != nil {
			t.Fatal(err)
		}
	}
	evs := eng.PendingEvents()
	if len(evs) != 200 {
		t.Fatalf("snapshot has %d events, want 200", len(evs))
	}
	prevAt := units.Seconds(math.Inf(-1))
	prevSeq := uint64(0)
	for i, ev := range evs {
		if ev.At < prevAt || (ev.At == prevAt && ev.Seq <= prevSeq) {
			t.Fatalf("snapshot out of order at %d: (%v,%d) after (%v,%d)", i, ev.At, ev.Seq, prevAt, prevSeq)
		}
		prevAt, prevSeq = ev.At, ev.Seq
	}
}
