package simulator

import (
	"testing"

	"iscope/internal/units"
)

// FuzzCalendarMatchesHeap decodes a schedule from the fuzz input and
// requires a calendar engine to fire exactly the stream the plain heap
// engine fires. Input bytes are read front to back as pushes — the
// low three bits pick the offset (same timestamp, just ahead and so
// late in an opened bucket, elsewhere in or just past the bucket, a few
// grid intervals ahead, beyond the ring's horizon, or no push) and the
// high five bits scale it. The first sixteen bytes seed the queue and
// every fired event consumes the next one, so the schedule is a
// function of the fired stream alone. Read back to front, the same
// bytes drive the calendar engine: Step or StepBatch per call, and
// now and then a checkpoint round trip (PendingEvents, Reset,
// InjectTag) before the call.
func FuzzCalendarMatchesHeap(f *testing.F) {
	f.Add([]byte("18")) // a late push, then a same-timestamp one
	f.Add([]byte{0x0a, 0x12, 0x22, 0x03, 0x01, 0x09, 0x00, 0x11, 0x04, 0x19, 0x21, 0xf1, 0x02, 0x07})
	f.Add([]byte{0xfa, 0x7a, 0x3a, 0x01, 0x01, 0x01, 0x01, 0x00, 0x00, 0x0c, 0x31, 0x41, 0x51, 0x61, 0x71, 0x81, 0x91, 0x10, 0x20})
	f.Add([]byte{0x03, 0x0b, 0x13, 0x1b, 0x04, 0x0c, 0x02, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		want := fuzzDrive(t, New[int](), data, false)
		got := fuzzDrive(t, NewCalendarWithCapacity[int](testGrid, 64), data, true)
		sameStream(t, "fuzz", want, got)
	})
}

func fuzzDrive(t *testing.T, eng *Engine[int], data []byte, vary bool) []fired {
	var out []fired
	next := 0
	push := func(now units.Seconds, tag int) {
		if next >= len(data) {
			return
		}
		b := data[next]
		next++
		p := units.Seconds(b >> 3)
		var delay units.Seconds
		switch b & 7 {
		case 0: // same timestamp
		case 1:
			delay = p * testGrid / 1024
		case 2:
			delay = p * testGrid / 32
		case 3:
			delay = units.Seconds(b>>3%8) * testGrid
		case 4:
			delay = (calWindow + p) * testGrid
		default:
			return
		}
		if err := eng.ScheduleTag(now+delay, tag); err != nil {
			t.Fatalf("ScheduleTag: %v", err)
		}
	}
	eng.SetDispatcher(func(tag int, now units.Seconds) {
		out = append(out, fired{now, eng.Seq(), tag})
		push(now, len(out))
	})
	for i := 0; i < 16; i++ {
		push(0, -1-i)
	}
	for call := 0; eng.Pending() > 0; call++ {
		if !vary {
			eng.Step()
			continue
		}
		d := data[len(data)-1-call%len(data)]
		if d&0x0e == 0 {
			roundTrip(t, eng)
		}
		if d&1 == 1 {
			eng.StepBatch(nil)
		} else {
			eng.Step()
		}
	}
	return out
}
