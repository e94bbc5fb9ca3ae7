// Package dtsim is an event-driven digital timing simulator: the
// stand-in for the Involution Tool's QuestaSim environment (paper §VI).
//
// A simulation consists of named nets carrying boolean values, sources
// that inject transitions, zero-time boolean gates, and delay channels
// that move transitions in time (with model-specific cancellation
// semantics). Channels are pluggable: the repository ships pure delay,
// inertial delay, involution exp-channels and SumExp channels
// (internal/inertial, internal/idm) and the paper's hybrid 2-input NOR
// channel (internal/hybrid).
package dtsim

import (
	"fmt"
	"math"

	"hybriddelay/internal/trace"
)

// EventID identifies a scheduled event for cancellation: the event's
// slot in the simulator's slab (low 32 bits) and the slot's generation
// (high 32 bits), so an ID outlives the slot's reuse without aliasing
// the next event placed there.
type EventID int64

// Slot states of the event slab.
const (
	slotFree uint8 = iota
	slotPending
	slotDead // cancelled; dropped when it reaches the top of the queue
)

// schedEvent is one slab slot: a callback, or the next event of a
// Drive stimulus.
type schedEvent struct {
	time  float64
	seq   int64 // tie-break: FIFO among equal times
	fn    func(t float64)
	src   *source
	state uint8
	gen   uint32
}

// source is one Drive stimulus. It keeps a single queue entry for its
// next transition instead of one entry per transition: each transition
// is enqueued, with the seq reserved for it at Drive time, when the
// previous one fires. The events are in time order, so the queue pops
// exactly the sequence it would pop with every transition enqueued up
// front.
type source struct {
	net    *Net
	events []trace.Event
	next   int   // index of the enqueued transition
	seq0   int64 // seq of events[0]
}

// Simulator owns the event queue and the simulation clock. Events live
// in a slab whose slots are recycled once an event fires or is dropped,
// and the queue is a binary min-heap of slot indices ordered by (time,
// seq): scheduling allocates only when the slab or heap outgrows every
// earlier high-water mark.
type Simulator struct {
	slots   []schedEvent
	free    []int32 // recycled slot indices
	queue   []int32 // min-heap of pending and dead slots by (time, seq)
	nextSeq int64
	now     float64
	started bool
}

// NewSimulator returns an empty simulator at time zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() float64 { return s.now }

// Schedule registers fn to run at time t (>= current time). It returns
// an EventID that can be passed to Cancel while the event is pending.
func (s *Simulator) Schedule(t float64, fn func(t float64)) (EventID, error) {
	if err := s.check(t); err != nil {
		return 0, err
	}
	s.nextSeq++
	return s.push(t, s.nextSeq, fn, nil), nil
}

// check rejects event times in the past or not finite.
func (s *Simulator) check(t float64) error {
	if s.started && t < s.now {
		return fmt.Errorf("dtsim: cannot schedule at %g before current time %g", t, s.now)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("dtsim: invalid event time %g", t)
	}
	return nil
}

// push places one event in a free slot and queues it.
func (s *Simulator) push(t float64, seq int64, fn func(t float64), src *source) EventID {
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, schedEvent{})
		i = int32(len(s.slots) - 1)
	}
	e := &s.slots[i]
	e.gen++
	if e.gen == 0 {
		e.gen = 1 // generation 0 is never live, so ID 0 names nothing
	}
	e.time, e.seq, e.fn, e.src, e.state = t, seq, fn, src, slotPending
	s.queue = append(s.queue, i)
	s.up(len(s.queue) - 1)
	return EventID(int64(e.gen)<<32 | int64(i))
}

// lookup returns the slot an ID names while it still holds that event.
func (s *Simulator) lookup(id EventID) *schedEvent {
	i := int64(uint32(id))
	if i >= int64(len(s.slots)) || s.slots[i].gen != uint32(id>>32) {
		return nil
	}
	return &s.slots[i]
}

// Cancel removes a pending event. Cancelling an already-fired or unknown
// event is a no-op and reports false.
func (s *Simulator) Cancel(id EventID) bool {
	e := s.lookup(id)
	if e == nil || e.state != slotPending {
		return false
	}
	e.state = slotDead
	return true
}

// Pending reports whether the event is still scheduled.
func (s *Simulator) Pending(id EventID) bool {
	e := s.lookup(id)
	return e != nil && e.state == slotPending
}

// less orders queue positions a and b by (time, seq).
func (s *Simulator) less(a, b int) bool {
	ea, eb := &s.slots[s.queue[a]], &s.slots[s.queue[b]]
	if ea.time != eb.time {
		return ea.time < eb.time
	}
	return ea.seq < eb.seq
}

// up moves the slot at queue position j toward the root until the heap
// order holds.
func (s *Simulator) up(j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !s.less(j, p) {
			return
		}
		s.queue[p], s.queue[j] = s.queue[j], s.queue[p]
		j = p
	}
}

// pop removes the queue's top slot, frees it and returns its event.
func (s *Simulator) pop() schedEvent {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	s.queue = q[:n]
	for j := 0; ; {
		c := 2*j + 1
		if c >= n {
			break
		}
		if c+1 < n && s.less(c+1, c) {
			c++
		}
		if !s.less(c, j) {
			break
		}
		q[j], q[c] = q[c], q[j]
		j = c
	}
	e := &s.slots[top]
	out := *e
	e.fn, e.src, e.state = nil, nil, slotFree
	s.free = append(s.free, top)
	return out
}

// Run executes events in time order until the queue is exhausted or the
// next event is after `until`.
func (s *Simulator) Run(until float64) error {
	s.started = true
	for len(s.queue) > 0 {
		top := &s.slots[s.queue[0]]
		if top.state == slotDead {
			s.pop()
			continue
		}
		if top.time > until {
			break
		}
		e := s.pop()
		if e.time < s.now {
			return fmt.Errorf("dtsim: causality violation: event at %g before clock %g", e.time, s.now)
		}
		s.now = e.time
		if src := e.src; src != nil {
			ev := src.events[src.next]
			if src.next++; src.next < len(src.events) {
				s.push(src.events[src.next].Time, src.seq0+int64(src.next), nil, src)
			}
			src.net.Set(ev.Time, ev.Value)
		} else {
			e.fn(e.time)
		}
	}
	if s.now < until {
		s.now = until
	}
	return nil
}

// Net is a named boolean signal with change listeners.
type Net struct {
	Name      string
	value     bool
	listeners []func(t float64, v bool)
	rec       *trace.Trace
	recording bool
}

// NewNet returns a net with the given initial value.
func NewNet(name string, initial bool) *Net {
	return &Net{Name: name, value: initial}
}

// Value returns the current logical value.
func (n *Net) Value() bool { return n.value }

// OnChange registers a listener invoked on every value change.
func (n *Net) OnChange(fn func(t float64, v bool)) {
	n.listeners = append(n.listeners, fn)
}

// Record starts capturing the net's transitions into a trace.
func (n *Net) Record() {
	n.rec = &trace.Trace{Initial: n.value}
	n.recording = true
}

// Trace returns the recorded trace (Record must have been called).
func (n *Net) Trace() trace.Trace {
	if n.rec == nil {
		return trace.Trace{Initial: n.value}
	}
	return *n.rec
}

// SetInitial overrides the net's initial value (before simulation)
// without recording a transition event.
func (n *Net) SetInitial(v bool) {
	n.value = v
	if n.rec != nil {
		n.rec.Initial = v
	}
}

// Set drives the net to v at time t, notifying listeners on change.
func (n *Net) Set(t float64, v bool) {
	if v == n.value {
		return
	}
	n.value = v
	if n.recording {
		n.rec.Events = append(n.rec.Events, trace.Event{Time: t, Value: v})
	}
	for _, fn := range n.listeners {
		fn(t, v)
	}
}

// Drive schedules every transition of a trace onto the net (a stimulus
// source). The net's initial value is overwritten to match.
func Drive(sim *Simulator, n *Net, tr trace.Trace) error {
	n.value = tr.Initial
	if n.rec != nil {
		n.rec.Initial = tr.Initial
	}
	events := tr.Events
	if !trace.Sorted(events) {
		// Equal times keep their trace order, as their seqs would.
		events = make([]trace.Event, 0, len(events))
		trace.Merge([]trace.Trace{tr}, func(_ int, e trace.Event) { events = append(events, e) })
	}
	for _, e := range events {
		if err := sim.check(e.Time); err != nil {
			return err
		}
	}
	if len(events) > 0 {
		src := &source{net: n, events: events, seq0: sim.nextSeq + 1}
		sim.nextSeq += int64(len(events))
		sim.push(events[0].Time, src.seq0, nil, src)
	}
	return nil
}
