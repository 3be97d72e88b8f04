// Package service is the session layer of horsed, the simulation-as-a-
// service daemon: a SessionManager that multiplexes many concurrent
// named simulation sessions over one machine-wide session budget, and a
// wire Server (server.go) fronting it with the versioned horse-wire
// protocol.
//
// Every session is a full simulation described by a serializable spec
// (api/wire.SessionSpec). Submit builds the engine eagerly through the
// façade bridge — a bad spec fails synchronously with the builder's
// typed validation errors, before any session state exists. Admitted
// sessions run under admission control: at most MaxSessions run
// concurrently, and excess submissions queue FIFO up to QueueLimit,
// beyond which Submit rejects with a typed error. Sessions
// are inspected (Status/List), cancelled mid-run — cancellation flows
// into the engine's context-aware Run, which returns partial-but-
// consistent results — and retired once terminal.
//
// Results ride the engine's streaming surfaces: progress reports and,
// for streamed sessions, every finalized flow record are pushed to
// subscribers in exact engine order (flow-engine sessions stay O(1)
// memory end to end — records go from the engine's record sink straight
// to the wire, never retained server-side). Non-streamed sessions retain
// their collector and replay records to any later watcher.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"horse"
	"horse/api/wire"
	"horse/internal/metrics"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// Config parameterizes a Manager. Zero values take defaults.
type Config struct {
	// MaxSessions bounds concurrently running sessions (default
	// GOMAXPROCS).
	MaxSessions int
	// QueueLimit bounds the FIFO admission queue (default 64).
	QueueLimit int
	// ProgressEvery is the virtual-time period of progress pushes
	// (default 100 ms).
	ProgressEvery simtime.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 100 * simtime.Millisecond
	}
	return c
}

// Typed admission and lifecycle errors (the wire server maps each to its
// error code).
var (
	// ErrDraining rejects submissions during shutdown.
	ErrDraining = errors.New("service: draining, not accepting sessions")
)

// QueueFullError rejects a submission when the FIFO queue is at
// capacity.
type QueueFullError struct {
	Limit int
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: admission queue full (%d queued)", e.Limit)
}

// NotFoundError names an unknown session.
type NotFoundError struct {
	ID string
}

func (e *NotFoundError) Error() string { return fmt.Sprintf("service: no session %q", e.ID) }

// NotRetirableError rejects retiring a session that is still queued or
// running.
type NotRetirableError struct {
	ID, State string
}

func (e *NotRetirableError) Error() string {
	return fmt.Sprintf("service: session %q is %s; cancel it before retiring", e.ID, e.State)
}

// Manager is the session manager of the daemon. Create with New.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	order    []string // submission order, for List
	queue    []*session
	running  int
	draining bool
	seq      int
	wg       sync.WaitGroup
}

// New returns a Manager enforcing cfg's admission control.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:      cfg,
		sessions: map[string]*session{},
	}
}

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// session is one managed simulation run.
type session struct {
	id       string
	name     string
	stream   bool
	fidelity string

	eng    horse.Engine
	until  simtime.Time
	ctx    context.Context
	cancel context.CancelFunc

	// Progress snapshot, written from the simulation goroutine.
	nowNs  atomic.Int64
	events atomic.Uint64

	// records counts sink-streamed records; touched only on the
	// simulation goroutine, read after Run returns.
	records int

	mu      sync.Mutex
	state   string
	err     error
	summary *wire.Summary
	col     *stats.Collector // retained results of non-streamed sessions
	// subs is copy-on-write: publish iterates a snapshot outside the lock,
	// so Watch replaces the slice instead of appending in place.
	subs []*Subscriber
}

// Submit validates and admits one session. The engine is built eagerly —
// spec errors (typed *horse.BuildError / *wire.SpecError /
// *horse.ScenarioEventError) surface here, synchronously — then the
// session queues FIFO and starts as soon as a session slot frees. sub, if
// non-nil, subscribes to the session's pushes before it can start, so a
// streaming submitter sees every record.
func (m *Manager) Submit(spec *wire.SessionSpec, name string, stream bool, sub *Subscriber) (wire.SessionStatus, error) {
	fid := spec.Options.Fidelity
	if fid == "" {
		fid = wire.FidelityFlow
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return wire.SessionStatus{}, ErrDraining
	}
	if len(m.queue) >= m.cfg.QueueLimit {
		m.mu.Unlock()
		return wire.SessionStatus{}, &QueueFullError{Limit: m.cfg.QueueLimit}
	}
	m.mu.Unlock()

	// Build outside the lock: engine construction does real work
	// (topology builders, trace generation) and must not serialize
	// against Status calls.
	s := &session{
		stream:   stream,
		fidelity: fid,
		name:     name,
		state:    wire.StateQueued,
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	extra := []horse.Option{
		horse.WithProgressEvery(m.cfg.ProgressEvery, func(p horse.Progress) {
			s.nowNs.Store(int64(p.Now))
			s.events.Store(p.Events)
			s.publish(&Push{Session: s.id, Event: wire.EventProgress,
				Progress: &wire.ProgressEvent{NowNs: int64(p.Now), Events: p.Events}})
		}),
	}
	if stream {
		extra = append(extra, horse.WithRecordSink(func(r horse.FlowRecord) {
			s.records++
			s.publish(&Push{Session: s.id, Event: wire.EventRecord, Record: wire.FromRecord(r)})
		}))
	}
	eng, until, err := horse.NewFromSpec(spec, extra...)
	if err != nil {
		return wire.SessionStatus{}, err
	}
	s.eng, s.until = eng, until

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return wire.SessionStatus{}, ErrDraining
	}
	if len(m.queue) >= m.cfg.QueueLimit {
		return wire.SessionStatus{}, &QueueFullError{Limit: m.cfg.QueueLimit}
	}
	m.seq++
	s.id = fmt.Sprintf("s%d", m.seq)
	if sub != nil {
		s.subs = append(s.subs, sub)
	}
	m.sessions[s.id] = s
	m.order = append(m.order, s.id)
	m.queue = append(m.queue, s)
	m.schedule()
	return s.status(), nil
}

// schedule starts queued sessions, in FIFO order, while fewer than
// MaxSessions run. Callers hold m.mu.
func (m *Manager) schedule() {
	for len(m.queue) > 0 && !m.draining && m.running < m.cfg.MaxSessions {
		s := m.queue[0]
		m.queue = m.queue[1:]
		m.running++
		s.mu.Lock()
		s.state = wire.StateRunning
		s.mu.Unlock()
		m.wg.Add(1)
		go m.run(s)
	}
}

// run executes one session to completion and frees its slot.
func (m *Manager) run(s *session) {
	defer m.wg.Done()
	col, err := func() (col *stats.Collector, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("service: session %s panicked: %v", s.id, r)
			}
		}()
		return s.eng.Run(s.ctx, s.until)
	}()
	s.finalize(col, err)
	m.mu.Lock()
	m.running--
	m.schedule()
	m.mu.Unlock()
}

// finalize moves a session to its terminal state, builds the summary,
// replays retained records to live watchers, and pushes Done.
func (s *session) finalize(col *stats.Collector, err error) {
	state := wire.StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		state = wire.StateCanceled
	default:
		state = wire.StateFailed
	}

	var summary *wire.Summary
	if col != nil {
		summary = &wire.Summary{Counters: wire.FromCounters(col.Counters())}
		if s.stream {
			summary.Records = s.records
		} else {
			summary.Records = len(col.Flows())
			if fcts := col.FCTs(); len(fcts) > 0 {
				d := wire.FromSummary(metrics.Summarize(fcts))
				summary.FCT = &d
			}
		}
	}

	s.mu.Lock()
	s.state = state
	s.err = err
	s.summary = summary
	if !s.stream {
		s.col = col
	}
	subs := s.subs
	s.subs = nil
	done := s.doneEventLocked()
	s.mu.Unlock()

	for _, sub := range subs {
		if sub.closed() {
			continue
		}
		if !s.stream {
			s.replay(col, sub)
		}
		sub.send(&Push{Session: s.id, Event: wire.EventDone, Done: done})
	}
}

// replay sends a retained collector's records (none if col is nil).
func (s *session) replay(col *stats.Collector, sub *Subscriber) {
	if col == nil {
		return
	}
	p := Push{Session: s.id, Event: wire.EventRecord}
	for _, r := range col.Flows() {
		p.Record = wire.FromRecord(r)
		sub.send(&p)
	}
}

// publish delivers a push to every live subscriber, in subscription
// order. Runs on the simulation goroutine (record sinks, progress
// hooks): delivery order per session is exactly engine order.
func (s *session) publish(p *Push) {
	s.mu.Lock()
	subs := s.subs
	s.mu.Unlock()
	for _, sub := range subs {
		sub.send(p)
	}
}

// doneEventLocked builds the Done push of a terminal session. s.mu held.
func (s *session) doneEventLocked() *wire.DoneEvent {
	d := &wire.DoneEvent{State: s.state, Summary: s.summary}
	if s.err != nil {
		d.Error = s.err.Error()
	}
	return d
}

// status snapshots the wire view. Callers must not hold s.mu.
func (s *session) status() wire.SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := wire.SessionStatus{
		Session:  s.id,
		Name:     s.name,
		State:    s.state,
		Fidelity: s.fidelity,
		Workers:  1, // every engine runs on one goroutine
		Stream:   s.stream,
		NowNs:    s.nowNs.Load(),
		Events:   s.events.Load(),
		Summary:  s.summary,
	}
	if s.err != nil {
		st.Error = s.err.Error()
	}
	return st
}

func (m *Manager) lookup(id string) (*session, error) {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return nil, &NotFoundError{ID: id}
	}
	return s, nil
}

// Status returns one session's current state.
func (m *Manager) Status(id string) (wire.SessionStatus, error) {
	s, err := m.lookup(id)
	if err != nil {
		return wire.SessionStatus{}, err
	}
	return s.status(), nil
}

// List returns every session in submission order.
func (m *Manager) List() []wire.SessionStatus {
	m.mu.Lock()
	ss := make([]*session, 0, len(m.order))
	for _, id := range m.order {
		if s := m.sessions[id]; s != nil {
			ss = append(ss, s)
		}
	}
	m.mu.Unlock()
	out := make([]wire.SessionStatus, len(ss))
	for i, s := range ss {
		out[i] = s.status()
	}
	return out
}

// Cancel cancels a queued or running session: a queued one goes terminal
// immediately; a running one has its context cancelled, and goes
// terminal when the engine returns its partial-but-consistent collector.
// Cancelling a terminal session is a no-op. The returned status is the
// state as of the call (a running session may still report "running"
// while the engine winds down).
func (m *Manager) Cancel(id string) (wire.SessionStatus, error) {
	s, err := m.lookup(id)
	if err != nil {
		return wire.SessionStatus{}, err
	}
	// Dequeue if still queued; the session then finalizes here, without
	// ever having run.
	m.mu.Lock()
	dequeued := false
	for i, q := range m.queue {
		if q == s {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			dequeued = true
			// The head may have been the blocker; sessions behind it can
			// be eligible now.
			m.schedule()
			break
		}
	}
	m.mu.Unlock()
	s.cancel()
	if dequeued {
		s.finalize(nil, context.Canceled)
	}
	return s.status(), nil
}

// Retire removes a terminal session (and its retained results) from the
// manager. Queued or running sessions must be cancelled first.
func (m *Manager) Retire(id string) (wire.SessionStatus, error) {
	s, err := m.lookup(id)
	if err != nil {
		return wire.SessionStatus{}, err
	}
	st := s.status()
	switch st.State {
	case wire.StateDone, wire.StateCanceled, wire.StateFailed:
	default:
		return wire.SessionStatus{}, &NotRetirableError{ID: id, State: st.State}
	}
	m.mu.Lock()
	delete(m.sessions, id)
	for i, oid := range m.order {
		if oid == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	return st, nil
}

// Watch subscribes sub to a session's pushes. A terminal session replays
// immediately: its retained records (non-streamed sessions), then Done.
// A queued or running session delivers live events from now on — to
// receive a streamed session's full record stream, subscribe at Submit.
func (m *Manager) Watch(id string, sub *Subscriber) (wire.SessionStatus, error) {
	s, err := m.lookup(id)
	if err != nil {
		return wire.SessionStatus{}, err
	}
	s.mu.Lock()
	switch s.state {
	case wire.StateDone, wire.StateCanceled, wire.StateFailed:
		col := s.col
		done := s.doneEventLocked()
		s.mu.Unlock()
		s.replay(col, sub)
		sub.send(&Push{Session: s.id, Event: wire.EventDone, Done: done})
	default:
		s.subs = append(s.subs[:len(s.subs):len(s.subs)], sub)
		s.mu.Unlock()
	}
	return s.status(), nil
}

// Drain stops admission, cancels every queued and running session, and
// waits (bounded by ctx) for in-flight sessions to finalize — watchers
// receive their partial results and Done pushes before Drain returns.
// The daemon calls this on SIGTERM.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	queued := m.queue
	m.queue = nil
	var runningIDs []*session
	for _, id := range m.order {
		if s := m.sessions[id]; s != nil {
			runningIDs = append(runningIDs, s)
		}
	}
	m.mu.Unlock()

	for _, s := range queued {
		s.cancel()
		s.finalize(nil, context.Canceled)
	}
	for _, s := range runningIDs {
		s.cancel()
	}

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
