// Package simcore is the shared discrete-event simulation kernel under
// every Horse engine: the virtual clock, the event queue, the
// deterministic dispatch loop, and the pooled event envelopes. The
// flow-level engine (flowsim), the packet-level engine (packetsim), and
// the hybrid coupler (hybrid) all run on one Kernel, which is what lets
// several engines share a single virtual clock and interleave their events
// in strict time order — the foundation of hybrid-fidelity runs.
//
// The kernel makes three promises:
//
//   - Determinism: events fire in nondecreasing time order, breaking ties
//     by deterministic order key (eventq.Keyed) and then FIFO schedule
//     order. Order keys derive from stable simulation entities, so the
//     heap oracle dispatches the same sequence as the wheel.
//   - One look at the queue head per dispatch: the loop asks the queue
//     for its earliest event no later than a bound (eventq's PopUntil) —
//     the run bound, or the current instant while a pre-advance hook has
//     deferred work pending — so an event beyond the bound stays queued,
//     tie order undisturbed, without a Peek-then-Pop pair.
//   - Pre-advance hooks: an engine may defer work that must settle before
//     virtual time advances past the current instant (flowsim's batched
//     fair-share re-solve). The kernel drains pending hooks exactly when
//     the next event would move the clock, so all events at one instant
//     share a single settling pass.
package simcore

import (
	"context"

	"horse/internal/eventq"
	"horse/internal/simtime"
)

// Event is a schedulable kernel event. Fire executes it; Release returns
// it to its owner's pool after dispatch. Events typically carry generation
// stamps (compared against owner state in Fire) so that stale, logically
// cancelled events are cheap no-ops — the pattern that makes pooling safe:
// a recycled envelope can never be confused with its former identity,
// because the generation it carried is dead.
type Event interface {
	eventq.Event
	// Fire executes the event at its firing time.
	Fire()
	// Release recycles the event after Fire returns. Implementations that
	// do not pool may make it a no-op.
	Release()
}

// Config parameterizes a Kernel. The zero Config runs on the timing
// wheel, the queue every engine uses.
type Config struct {
	// Backend selects eventq.BackendHeap, the determinism oracle tests
	// and the benchmark's dispatch probe compare the wheel against.
	Backend eventq.Backend
	// Queue, if non-nil, is used directly and overrides Backend (a test
	// wraps the wheel to record dispatch order).
	Queue eventq.Canceler
}

// hook is one pre-advance hook: pending reports whether deferred work
// exists; drain settles it (and may schedule new events at or after the
// current instant).
type hook struct {
	pending func() bool
	drain   func()
}

// Kernel is the simulation core: virtual clock + event queue + dispatch
// loop. Zero value is not usable; call New.
type Kernel struct {
	q          eventq.Canceler
	now        simtime.Time
	hooks      []hook
	dispatched uint64
	// cur is the event being dispatched (nil between dispatches).
	cur Event
}

// New builds a kernel over the configured queue.
func New(cfg Config) *Kernel {
	q := cfg.Queue
	if q == nil {
		q = eventq.New(cfg.Backend)
	}
	return &Kernel{q: q}
}

// Now returns the current virtual time.
func (k *Kernel) Now() simtime.Time { return k.now }

// Len returns the number of scheduled events.
func (k *Kernel) Len() int { return k.q.Len() }

// Dispatched returns how many events have fired — the work metric shared
// across all engines on this kernel (E7 reports it as events/sec).
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Schedule queues an event. Scheduling in the past is not checked; the
// clock never moves backwards, so such an event fires at the current
// instant (after everything already queued there).
func (k *Kernel) Schedule(ev Event) { k.q.Push(ev) }

// Reserve takes n consecutive FIFO sequence numbers from the queue and
// returns the first (see eventq.Queue.Reserve). ScheduleSeq later queues
// an event under one of them, so a cursor that keeps one of n pending
// events queued at a time dispatches them exactly where n eager Schedule
// calls made at Reserve time would have.
func (k *Kernel) Reserve(n int) uint64 { return k.q.Reserve(n) }

// ScheduleSeq queues an event under a sequence number from Reserve.
func (k *Kernel) ScheduleSeq(ev Event, seq uint64) { k.q.PushSeq(ev, seq) }

// Timer is a handle on one cancelable scheduled event. The zero Timer is
// valid and cancels as a no-op; handles go stale once the event fires or
// is cancelled, so engines may keep a Timer per flow/switch and Cancel it
// unconditionally. Timers are value types and allocate nothing (queue
// nodes are pooled).
type Timer struct {
	h eventq.Handle
}

// ScheduleCancelable queues an event and returns a Timer that can remove
// it before it fires. Cancellation truly removes the event — on the
// wheel in O(1), on the heap by marking the entry dead without ever
// touching the event again — so the engine can recycle the envelope
// immediately.
func (k *Kernel) ScheduleCancelable(ev Event) Timer {
	return Timer{h: k.q.PushCancelable(ev)}
}

// Cancel removes a cancelable scheduled event. It returns true when the
// event was still pending (its envelope has been released); a zero or
// stale Timer — the event already fired or was already cancelled — is a
// safe no-op returning false.
func (k *Kernel) Cancel(t Timer) bool {
	ev, ok := k.q.Cancel(t.h)
	if !ok {
		return false
	}
	ev.(Event).Release()
	return true
}

// AddPreAdvance registers a pre-advance hook. Hooks run — in registration
// order — whenever the next event would advance the clock (or the queue is
// empty) while pending() reports deferred work. drain() may schedule new
// events, including at the current instant; the kernel re-examines the
// queue after every drain pass.
func (k *Kernel) AddPreAdvance(pending func() bool, drain func()) {
	k.hooks = append(k.hooks, hook{pending: pending, drain: drain})
}

func (k *Kernel) anyPending() bool {
	for i := range k.hooks {
		if k.hooks[i].pending() {
			return true
		}
	}
	return false
}

func (k *Kernel) drainHooks() {
	for i := range k.hooks {
		if k.hooks[i].pending() {
			k.hooks[i].drain()
		}
	}
}

// Run executes events until the queue drains or the next event lies beyond
// until (use simtime.Never for no bound). On the time bound the clock
// advances to until and the out-of-bound event stays queued, so Run may be
// called repeatedly with increasing bounds to step a simulation. Leaving
// the event in the queue (as
// opposed to popping and staging it) keeps its (time, key, seq) position
// intact, so stepping never perturbs tie order.
func (k *Kernel) Run(until simtime.Time) {
	for {
		ev := k.next(until)
		if ev == nil {
			return
		}
		if t := ev.Time(); t > k.now {
			k.now = t
		}
		k.dispatched++
		k.cur = ev
		ev.Fire()
		k.cur = nil
		ev.Release()
	}
}

// DispatchKey returns the order key of the event being dispatched
// (eventq.DefaultOrderKey for an unkeyed one) and true, or false between
// dispatches: while pre-advance hooks drain and after Run returns, which
// in an uninterrupted run is after every event of the current instant
// has fired. An engine whose state changes at an implicit position in
// the instant's order (the packet engine's frame departures) compares
// the key against that position.
func (k *Kernel) DispatchKey() (uint64, bool) {
	if k.cur == nil {
		return 0, false
	}
	if kd, ok := k.cur.(eventq.Keyed); ok {
		return kd.OrderKey(), true
	}
	return eventq.DefaultOrderKey, true
}

// RunContext is Run with cooperative cancellation: the dispatch loop
// polls ctx.Done() every ctxPollEvery dispatches and returns ctx.Err()
// when the context is cancelled or past its deadline, leaving the queue
// (and the clock) exactly where the last dispatched event put them — the
// caller can settle partial results or resume with another Run. A context
// that can never be cancelled (context.Background) takes the plain Run
// fast path.
func (k *Kernel) RunContext(ctx context.Context, until simtime.Time) error {
	done := ctx.Done()
	if done == nil {
		k.Run(until)
		return nil
	}
	for {
		for i := 0; i < ctxPollEvery; i++ {
			ev := k.next(until)
			if ev == nil {
				return nil
			}
			if t := ev.Time(); t > k.now {
				k.now = t
			}
			k.dispatched++
			k.cur = ev
			ev.Fire()
			k.cur = nil
			ev.Release()
		}
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
}

// ctxPollEvery bounds how many events RunContext dispatches between
// cancellation polls: small enough to stop promptly (microseconds of real
// work), large enough to keep the channel poll off the per-event path.
const ctxPollEvery = 256

// next removes and returns the earliest runnable event, honoring
// pre-advance hooks: while deferred work is pending only events at the
// current instant may run, and once none is left the work settles before
// the clock would advance (the drain may schedule events earlier than the
// stalled head, so the queue is re-examined after each pass). Returns nil
// when everything has drained or the head lies beyond the bound (the
// clock then parks at the bound). Either way the queue head is inspected
// once, by PopUntil.
func (k *Kernel) next(until simtime.Time) Event {
	for {
		bound, pending := until, k.anyPending()
		if pending && k.now < bound {
			bound = k.now
		}
		if ev := k.q.PopUntil(bound); ev != nil {
			return ev.(Event)
		}
		if pending {
			k.drainHooks()
			if k.q.Len() == 0 {
				return nil
			}
			continue
		}
		if k.q.Len() > 0 {
			k.now = until
		}
		return nil
	}
}

// Order classes shared by every engine on the kernel. An event's order
// key is OrderKey(class, entity): at one instant, lower classes fire
// first, and within a class the stable entity ID (link direction,
// datapath, flow index) breaks the tie. The control-plane classes belong
// to flowsim.ControlPlane, which every engine attaches to; the engines'
// own events use ClassData and up.
//
// Classes are ordered so that at one instant: scripted topology changes
// land first (the outage is in effect before that instant's traffic),
// then controller→switch applications, table expiries, switch→controller
// deliveries and controller timers, and finally the engines' data-plane
// events (per-engine subclasses from ClassData up).
const (
	ClassTopoChange uint64 = iota
	ClassToSwitch
	ClassExpiry
	ClassToController
	ClassTimer
	ClassData // first engine-specific data class; engines add offsets
)

// OrderKey packs an order class and a stable entity ID into an
// eventq.Keyed key.
func OrderKey(class uint64, entity uint32) uint64 {
	return class<<32 | uint64(entity)
}

// Pool recycles event envelopes so steady-state simulation allocates no
// event memory: Get returns a recycled (or new) zero-value-at-rest *T, Put
// returns one after the owner has cleared payload references. Pool is not
// goroutine-safe; each engine owns one.
type Pool[T any] struct {
	free []*T
}

// Get returns an envelope from the pool, allocating if empty.
func (p *Pool[T]) Get() *T {
	if n := len(p.free) - 1; n >= 0 {
		x := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		return x
	}
	return new(T)
}

// Put recycles an envelope. The caller must have dropped every reference
// and cleared the envelope's payload fields.
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }
