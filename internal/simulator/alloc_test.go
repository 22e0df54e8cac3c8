package simulator

import (
	"testing"

	"iscope/internal/units"
)

// TestCalendarPushPopAllocFree pins the calendar ring's steady state:
// once a bucket's item slice and late heap have reached capacity,
// scheduling into it and draining it must not touch the heap. The
// first cycle schedules in descending order, so it also exercises the
// sort on opening; the second has its handlers push into the opened
// bucket below its tail, so it exercises the late heap.
func TestCalendarPushPopAllocFree(t *testing.T) {
	grid := units.Seconds(600)
	e := NewCalendarWithCapacity[int](grid, 64)
	e.SetDispatcher(func(tag int, now units.Seconds) {})

	cycle := func() {
		base := e.Now()
		// Tiny offsets keep the whole measurement inside one grid
		// bucket; descending order forces the unsorted-push path.
		for i := 31; i >= 0; i-- {
			if err := e.ScheduleTag(base+units.Seconds(i)*1e-6, i); err != nil {
				t.Fatal(err)
			}
		}
		for e.Step() {
		}
	}
	cycle() // warm: grow the bucket's item slice to capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("calendar push/pop allocated %v times per cycle in steady state, want 0", allocs)
	}

	setLatePusher(t, e)
	late := func() {
		base := e.Now()
		for i := 0; i < 32; i++ {
			if err := e.ScheduleTag(base+units.Seconds(i+1)*1e-6, i); err != nil {
				t.Fatal(err)
			}
		}
		for e.Step() {
		}
	}
	late() // warm: grow the late heap to capacity
	pushes := e.cal.latePushes
	if allocs := testing.AllocsPerRun(100, late); allocs != 0 {
		t.Errorf("calendar late-heap push/pop allocated %v times per cycle in steady state, want 0", allocs)
	}
	if e.cal.latePushes == pushes {
		t.Fatal("late cycle never pushed into a late heap")
	}
}

// setLatePusher installs a dispatcher whose handlers for tags below 16
// each push one event half a microsecond ahead — below the tail of the
// bucket being drained, so into its late heap.
func setLatePusher(t *testing.T, e *Engine[int]) {
	e.SetDispatcher(func(tag int, now units.Seconds) {
		if tag < 16 {
			if err := e.ScheduleTag(now+0.5e-6, 100+tag); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestStepBatchAllocFree pins the same-timestamp batch dispatch: once
// the retained batch buffer has reached capacity, popping an entire
// equal-timestamp run out of the front bucket and firing it must not
// touch the heap. Half the events share one timestamp (the batch run)
// and half are spread out (single-step fallbacks), so every cycle
// exercises both sides of StepBatch.
func TestStepBatchAllocFree(t *testing.T) {
	grid := units.Seconds(600)
	e := NewCalendarWithCapacity[int](grid, 64)
	e.SetDispatcher(func(tag int, now units.Seconds) {})

	cycle := func() {
		base := e.Now()
		for i := 15; i >= 0; i-- {
			// One 16-event run at a shared timestamp...
			if err := e.ScheduleTag(base+1e-6, i); err != nil {
				t.Fatal(err)
			}
			// ...and 16 singletons behind it.
			if err := e.ScheduleTag(base+2e-6+units.Seconds(i)*1e-6, i); err != nil {
				t.Fatal(err)
			}
		}
		for e.StepBatch(nil) > 0 {
		}
	}
	cycle() // warm: grow the bucket and batch slices to capacity
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("batch dispatch allocated %v times per cycle in steady state, want 0", allocs)
	}

	// The shared-timestamp run's handlers push 16 events at one later
	// timestamp below the bucket's tail: they collect in the late heap
	// and leave it as one batch.
	setLatePusher(t, e)
	late := func() {
		base := e.Now()
		for i := 0; i < 16; i++ {
			if err := e.ScheduleTag(base+1e-6, i); err != nil {
				t.Fatal(err)
			}
			if err := e.ScheduleTag(base+2e-6+units.Seconds(i)*1e-6, 16+i); err != nil {
				t.Fatal(err)
			}
		}
		for e.StepBatch(nil) > 0 {
		}
	}
	late() // warm: grow the late heap to capacity
	pushes := e.cal.latePushes
	if allocs := testing.AllocsPerRun(100, late); allocs != 0 {
		t.Errorf("batch dispatch from a late heap allocated %v times per cycle in steady state, want 0", allocs)
	}
	if e.cal.latePushes == pushes {
		t.Fatal("late cycle never pushed into a late heap")
	}
}
