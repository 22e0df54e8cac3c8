package simulator

import (
	"slices"

	"iscope/internal/units"
)

// Calendar (bucket) queue backend.
//
// The scheduler's event population is dominated by events that land on
// the supply grid: wind ticks, aux ticks, telemetry, and the completion
// storms they trigger all cluster at a handful of timestamps per
// 10-minute interval. A general heap pays O(log n) per push/pop for an
// access pattern that is nearly FIFO at bucket granularity. The
// calendar queue exploits that: events hash by ⌊at/grid⌋ into a ring of
// up to calWindow buckets. A bucket fills as an append pile, is sorted
// once when it is opened (the first time it becomes the pop candidate),
// and then drains by a head cursor. Events that arrive in an opened
// bucket below its run's tail — completions scheduled into the interval
// being drained — go to the bucket's small late heap instead of
// unsorting the run; a pop takes the smaller of the run's front and the
// late heap's top. A bucket therefore sorts at most once per time it is
// opened (pinned by the calendar's sort counter in the tests).
//
// Events beyond the ring's horizon (one window of grid intervals past
// the clock) spill into the engine's retained 4-ary heap; popMin compares
// the candidate bucket's front against the heap top under the same
// strict (at, seq) order, so the pop sequence — and therefore every
// simulation result and checkpoint byte — is identical to the plain
// heap engine's. The backend is a pure performance choice.
//
// Invariant (why the ring cannot collide): every live event satisfies
// at >= now, so its grid index g is >= gi(now); and it was admitted to
// the ring at some pushNow <= now with g < gi(pushNow)+window <=
// gi(now)+window. All live ring indices therefore lie in the half-open
// window [gi(now), gi(now)+window), where two distinct indices with
// equal residue mod window would have to differ by at least the window
// size — impossible. The gidx assertions below guard that reasoning
// against future edits.

// calWindow is the maximum ring size in grid intervals (a power of two
// so the slot index is a mask). At the scheduler's 10-minute grid this
// is a ~7-day horizon; later events overflow to the heap, which stays
// correct, just not O(1). Runs whose capacity hint is small get a
// proportionally smaller ring (down to calWindowMin) — a run that can
// only hold a few hundred live events has no use for a thousand
// buckets' worth of per-run setup, and a shorter horizon only reroutes
// far-future events to the overflow heap.
const (
	calWindow    = 1024
	calWindowMin = 64
	// calCarve is the per-bucket item capacity pre-carved from one
	// shared backing array at construction, so the common sparse bucket
	// never allocates; denser buckets grow individually via append.
	calCarve = 8
)

const calNoMin = int64(1) << 62

// calBucket holds the events of one grid interval. Until the bucket is
// opened, items is an append pile and sorted records whether it is
// still ascending under (at, seq) — buckets fill in nearly sorted order
// because seq is monotone, so opening usually needs no sort at all.
// Once open, items[head:] is the sorted run (items[:head] are already
// popped and zeroed) and late is a 4-ary heap of the pushes that sorted
// below the run's tail; the bucket's front is the smaller of the two
// fronts. A fully drained bucket closes again.
type calBucket[T any] struct {
	gidx   int64
	open   bool
	sorted bool
	head   int
	items  []node[T]
	late   []node[T]
}

func (b *calBucket[T]) live() int { return len(b.items) - b.head + len(b.late) }

// lateFront reports whether the open bucket's front is the late heap's
// top rather than the run's head.
func (b *calBucket[T]) lateFront() bool {
	return len(b.late) > 0 && (b.head == len(b.items) || before(&b.late[0], &b.items[b.head]))
}

type calendar[T any] struct {
	grid  units.Seconds
	slots []calBucket[T]
	mask  int64 // len(slots)-1; len(slots) is a power of two
	count int   // live events across all buckets
	minG  int64 // lower bound on the smallest live grid index
	// fills, sorts and latePushes count pushes into empty buckets,
	// sorts on opening and pushes routed to late heaps; read only by
	// tests. A bucket opens at most once per fill.
	fills, sorts, latePushes int
}

func newCalendar[T any](grid units.Seconds) *calendar[T] {
	return newCalendarSized[T](grid, calWindow)
}

// newCalendarSized builds a ring of window buckets (a power of two in
// [calWindowMin, calWindow]) with each bucket's item slice pre-carved
// from a single shared backing array, so a fresh run costs two
// allocations instead of one per touched bucket.
func newCalendarSized[T any](grid units.Seconds, window int) *calendar[T] {
	c := &calendar[T]{
		grid:  grid,
		slots: make([]calBucket[T], window),
		mask:  int64(window) - 1,
		minG:  calNoMin,
	}
	backing := make([]node[T], window*calCarve)
	for i := range c.slots {
		c.slots[i].items = backing[i*calCarve : i*calCarve : (i+1)*calCarve]
	}
	return c
}

func (c *calendar[T]) gi(at units.Seconds) int64 { return int64(at / c.grid) }

// add places n in the ring bucket for grid index g. The caller has
// already checked g is within the horizon.
func (c *calendar[T]) add(g int64, n node[T]) {
	b := &c.slots[g&c.mask]
	c.count++
	if g < c.minG {
		c.minG = g
	}
	switch {
	case b.live() == 0:
		b.gidx = g
		b.sorted = true
		c.fills++
	case b.gidx != g:
		panic("simulator: calendar bucket collision (live index outside window)")
	case len(b.items) > b.head && before(&n, &b.items[len(b.items)-1]):
		// Below the run's tail. An open bucket keeps its run sorted and
		// holds n in its late heap; a closed one sorts on opening.
		if b.open {
			b.late = heapPush(b.late, n)
			c.latePushes++
			return
		}
		b.sorted = false
	}
	b.items = append(b.items, n)
}

// findMin returns the bucket holding the earliest ring event, advancing
// minG past drained buckets. Callers must ensure count > 0; the scan is
// then guaranteed to hit a live bucket within len(slots) steps (see the
// window invariant above).
func (c *calendar[T]) findMin(giNow int64) *calBucket[T] {
	g := c.minG
	if giNow > g {
		g = giNow
	}
	for {
		b := &c.slots[g&c.mask]
		if b.live() > 0 {
			if b.gidx != g {
				panic("simulator: calendar bucket collision (live index outside window)")
			}
			c.minG = g
			return b
		}
		g++
	}
}

// top returns the bucket's earliest live event. A closed bucket is
// opened first, sorting its append pile in place if pushes arrived out
// of order. That one sort per opening is the calendar queue's whole
// trick: every later pop is a cursor increment or a small late-heap
// pop.
func (c *calendar[T]) top(b *calBucket[T]) *node[T] {
	if !b.open {
		if !b.sorted {
			c.sorts++
			slices.SortFunc(b.items[b.head:], func(x, y node[T]) int {
				if before(&x, &y) {
					return -1
				}
				return 1
			})
		}
		b.open = true
	}
	if b.lateFront() {
		return &b.late[0]
	}
	return &b.items[b.head]
}

// take removes the open bucket's front event (its top).
func (c *calendar[T]) take(b *calBucket[T]) node[T] {
	var n node[T]
	if b.lateFront() {
		n, b.late = heapPop(b.late)
	} else {
		n = b.items[b.head]
		var zero node[T]
		b.items[b.head] = zero // release the tag for GC, if T holds pointers
		b.head++
	}
	c.count--
	if b.head == len(b.items) {
		b.head = 0
		b.items = b.items[:0]
		if len(b.late) == 0 {
			b.open = false
		}
	}
	return n
}

func (c *calendar[T]) reset() {
	for i := range c.slots {
		b := &c.slots[i]
		clear(b.items) // live nodes may hold pointers via the tag
		clear(b.late)
		b.items = b.items[:0]
		b.late = b.late[:0]
		b.head = 0
		b.open = false
		b.gidx = 0
	}
	c.count = 0
	c.minG = calNoMin
}

// --- Engine integration ---

// NewCalendarWithCapacity returns an engine backed by a calendar queue
// keyed on the given grid interval, with the overflow heap preallocated
// for n events. n also sizes the bucket ring: a run that can hold at
// most a few hundred live events gets a proportionally smaller ring, so
// small simulations don't pay the million-proc engine's setup cost. A
// non-positive grid degrades to the plain heap engine. Pop order — and
// therefore every result and checkpoint byte — is identical to
// New/NewWithCapacity; the backend is purely a performance choice.
func NewCalendarWithCapacity[T any](grid units.Seconds, n int) *Engine[T] {
	e := &Engine[T]{pq: make([]node[T], 0, n)}
	if grid > 0 {
		// Shrink the ring until its pre-carved storage fits the
		// capacity hint: a run with n live events spread over more
		// intervals than that keeps the excess in the heap anyway, and
		// the smaller ring's slots get reused (and keep their grown
		// capacity) instead of each paying one-shot append growth.
		window := calWindow
		for window > calWindowMin && window*calCarve > n {
			window >>= 1
		}
		e.cal = newCalendarSized[T](grid, window)
	}
	return e
}

// enq routes a new event to the calendar ring when one is installed and
// the event lands within its horizon; everything else takes the heap.
// The float guards reject timestamps whose grid index would overflow
// the int64 conversion (absurd but schedulable values, e.g. from
// untrusted job submissions) and non-finite times — those spill to the
// heap, which is always correct.
func (e *Engine[T]) enq(n node[T]) {
	if c := e.cal; c != nil {
		w := c.mask + 1
		q := float64(n.at) / float64(c.grid)
		qn := float64(e.now) / float64(c.grid)
		if q >= qn && q-qn < float64(w-1) && q < float64(int64(1)<<62) {
			g := int64(q)
			gn := int64(qn)
			if g >= 0 && g >= gn && g-gn < w {
				c.add(g, n)
				return
			}
		}
	}
	e.push(n)
}

// popMin removes and returns the earliest event across both backends.
// The caller must ensure Pending() > 0.
func (e *Engine[T]) popMin() node[T] {
	c := e.cal
	if c == nil || c.count == 0 {
		return e.pop()
	}
	b := c.findMin(c.gi(e.now))
	t := c.top(b) // opens the bucket, which take requires
	if len(e.pq) > 0 && before(&e.pq[0], t) {
		return e.pop()
	}
	return c.take(b)
}

// peekMin reports the (at, seq) of the event popMin would return.
func (e *Engine[T]) peekMin() (at units.Seconds, seq uint64, ok bool) {
	c := e.cal
	if c == nil || c.count == 0 {
		if len(e.pq) == 0 {
			return 0, 0, false
		}
		return e.pq[0].at, e.pq[0].seq, true
	}
	t := c.top(c.findMin(c.gi(e.now)))
	if len(e.pq) > 0 && before(&e.pq[0], t) {
		return e.pq[0].at, e.pq[0].seq, true
	}
	return t.at, t.seq, true
}
