package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hybriddelay/internal/session"
)

// State is a job's lifecycle position in the registry.
type State string

// The job lifecycle. Queued jobs hold an admission backlog slot;
// running jobs hold a concurrency slot; the three terminal states are
// final (a cancelled job stays cancelled even if its last in-flight
// unit completed successfully).
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Event is one element of a job's SSE stream: a progress step
// (Kind "progress") or the single terminal marker (Kind "end"). Seq is
// the per-job sequence number, assigned under the registry's
// serialization — because session.Progress delivery is serialized per
// job, Seq increases deterministically with the job's own step order.
type Event struct {
	Seq       int    `json:"seq"`
	Kind      string `json:"kind"` // "progress" or "end"
	Phase     string `json:"phase,omitempty"`
	Scenario  int    `json:"scenario,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Completed int    `json:"completed,omitempty"`
	Total     int    `json:"total,omitempty"`
	Err       string `json:"err,omitempty"`
	State     State  `json:"state,omitempty"` // terminal events only
}

// Job is one submitted workload tracked by the registry. All mutable
// fields are guarded by mu; events only grows, and waiters are woken
// through the notify channel (closed and replaced on every append).
type Job struct {
	ID     string  `json:"id"`
	Client string  `json:"client"`
	Spec   JobSpec `json:"spec"`

	sjob   session.Job // validated spec conversion, fixed at submit
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    State
	events   []Event
	notify   chan struct{}
	result   *session.Result
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
}

// withProgress returns the job's session.Job with the event publisher
// attached as its Progress callback.
func (j *Job) withProgress() session.Job {
	switch sj := j.sjob.(type) {
	case session.GateJob:
		sj.Progress = j.progress
		return sj
	case session.CircuitJob:
		sj.Progress = j.progress
		return sj
	case session.SweepJob:
		sj.Progress = j.progress
		return sj
	}
	return j.sjob
}

// JobStatus is the wire form of GET /v1/jobs/{id}: the job's identity,
// state, timing, and — once terminal — its result or error.
type JobStatus struct {
	ID        string          `json:"id"`
	Client    string          `json:"client"`
	Kind      session.Kind    `json:"kind"`
	State     State           `json:"state"`
	CreatedAt time.Time       `json:"created_at"`
	StartedAt *time.Time      `json:"started_at,omitempty"`
	EndedAt   *time.Time      `json:"ended_at,omitempty"`
	Events    int             `json:"events"`
	Error     string          `json:"error,omitempty"`
	Result    *session.Result `json:"result,omitempty"`
}

// Status snapshots the job for the status endpoint.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Client: j.Client, Kind: j.Spec.Kind,
		State: j.state, CreatedAt: j.created,
		Events: len(j.events), Error: j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.EndedAt = &t
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	return st
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// publish appends one event, assigning its sequence number, and wakes
// every waiting subscriber.
func (j *Job) publish(e Event) {
	j.mu.Lock()
	e.Seq = len(j.events) + 1
	j.events = append(j.events, e)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

// EventsSince returns the events with Seq > after, plus a channel that
// is closed when further events arrive. The final event of every job is
// the terminal "end" marker, so a subscriber that has seen it never
// needs to wait again.
func (j *Job) EventsSince(after int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var evs []Event
	if after < len(j.events) {
		evs = append(evs, j.events[after:]...)
	}
	return evs, j.notify
}

// LogComplete reports whether a subscriber positioned at offset after
// has seen the whole event log and the log is closed (its last event
// is the terminal "end" marker, after which nothing is ever appended).
// Checked under the same lock as publish, so a true result can never
// drop a concurrently published event.
func (j *Job) LogComplete(after int) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.events)
	return n > 0 && j.events[n-1].Kind == "end" && after >= n
}

// progress adapts the session's serialized Progress stream onto the
// job's event log.
func (j *Job) progress(p session.Progress) {
	e := Event{
		Kind: "progress", Phase: p.Phase, Scenario: p.Scenario,
		Seed: p.Seed, Completed: p.Completed, Total: p.Total,
	}
	if p.Err != nil {
		e.Err = p.Err.Error()
	}
	j.publish(e)
}

// finish moves the job to its terminal state and publishes the "end"
// marker. The terminal state wins over late transitions: a job
// cancelled while its result was being assembled reports cancelled.
func (j *Job) finish(state State, res *session.Result, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	if err != nil {
		j.errMsg = err.Error()
	}
	j.finished = time.Now()
	j.mu.Unlock()
	j.publish(Event{Kind: "end", State: state, Err: j.errMsg})
}

// Terminal-job retention: a finished job stays queryable for
// DefaultTerminalTTL, and at most DefaultMaxTerminal terminal jobs are
// retained (oldest-finished evicted first). Queued and running jobs
// are never evicted.
const (
	DefaultTerminalTTL = 15 * time.Minute
	DefaultMaxTerminal = 4096
)

// termRec remembers when a job reached its terminal state, in finish
// order, so eviction can trim an expired/over-cap prefix without
// touching job locks.
type termRec struct {
	id string
	at time.Time
}

// Registry is the server's in-memory job table — the /metrics job
// inventory and the status endpoint's source of truth. Queued and
// running jobs live until they finish; terminal jobs are retained for
// a bounded time and count (DefaultTerminalTTL, DefaultMaxTerminal)
// and then evicted lazily on the next registry access. Eviction only
// unlinks the job from the table: subscribers already holding the *Job
// keep streaming its buffered events (every terminal job's log ends
// with the "end" marker), while new lookups of the evicted id answer
// not-found.
type Registry struct {
	mu          sync.Mutex
	nextID      int
	jobs        map[string]*Job
	counts      map[State]int
	terminal    []termRec // terminal jobs in finish order
	ttl         time.Duration
	maxTerminal int
	evictions   int64
	now         func() time.Time // injectable clock (tests)
}

// NewRegistry returns an empty job table with default retention.
func NewRegistry() *Registry {
	return &Registry{
		jobs:        map[string]*Job{},
		counts:      map[State]int{},
		ttl:         DefaultTerminalTTL,
		maxTerminal: DefaultMaxTerminal,
		now:         time.Now,
	}
}

// Evictions reports how many terminal jobs retention has dropped.
func (r *Registry) Evictions() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// evictLocked trims the terminal prefix that is over the count cap or
// past its TTL. Finish times are nondecreasing in r.terminal, so the
// expired set is always a prefix.
func (r *Registry) evictLocked() {
	now := r.now()
	i := 0
	for i < len(r.terminal) && (len(r.terminal)-i > r.maxTerminal || now.Sub(r.terminal[i].at) >= r.ttl) {
		rec := r.terminal[i]
		if j, ok := r.jobs[rec.id]; ok {
			delete(r.jobs, rec.id)
			j.mu.Lock()
			st := j.state
			j.mu.Unlock()
			r.counts[st]--
			r.evictions++
		}
		i++
	}
	if i > 0 {
		r.terminal = r.terminal[:copy(r.terminal, r.terminal[i:])]
	}
}

// Add registers a new queued job and assigns its id.
func (r *Registry) Add(spec JobSpec, client string, sjob session.Job, ctx context.Context, cancel context.CancelFunc) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	j := &Job{
		ID:      fmt.Sprintf("j%06d", r.nextID),
		Client:  client,
		Spec:    spec,
		sjob:    sjob,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		notify:  make(chan struct{}),
		created: time.Now(),
	}
	r.jobs[j.ID] = j
	r.counts[StateQueued]++
	return j
}

// Remove drops a job that never entered the system (an admission
// rejection after registration). Only queued jobs can be removed.
func (r *Registry) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	if !ok {
		return
	}
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		delete(r.jobs, id)
		r.counts[StateQueued]--
	}
}

// Get looks a job up by id. Expired terminal jobs are evicted first,
// so an id past its retention window answers not-found.
func (r *Registry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked()
	j, ok := r.jobs[id]
	return j, ok
}

// transition moves a job between states, keeping the per-state counts.
func (r *Registry) transition(j *Job, apply func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j.mu.Lock()
	before := j.state
	j.mu.Unlock()
	apply()
	j.mu.Lock()
	after := j.state
	j.mu.Unlock()
	if before != after {
		r.counts[before]--
		r.counts[after]++
		if after.terminal() {
			r.terminal = append(r.terminal, termRec{id: j.ID, at: r.now()})
			r.evictLocked()
		}
	}
}

// Start marks a queued job running.
func (r *Registry) Start(j *Job) {
	r.transition(j, func() {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateRunning
			j.started = time.Now()
		}
		j.mu.Unlock()
	})
}

// Finish moves a job to a terminal state (see Job.finish).
func (r *Registry) Finish(j *Job, state State, res *session.Result, err error) {
	r.transition(j, func() { j.finish(state, res, err) })
}

// Counts snapshots the per-state job counts (after retention).
func (r *Registry) Counts() map[State]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.evictLocked()
	out := make(map[State]int, len(r.counts))
	//hybrid:nondet-ok map-to-map copy with distinct keys; the /metrics JSON encoder sorts map keys on output
	for s, n := range r.counts {
		if n != 0 {
			out[s] = n
		}
	}
	return out
}
