package service

import (
	"sync"

	"horse/api/wire"
)

// Push is one server-push event bound for a subscriber: a progress
// report, a finalized flow record, or the terminal Done marker of a
// session stream.
type Push struct {
	Session string
	// Event is wire.EventProgress, wire.EventRecord, or wire.EventDone.
	Event    string
	Progress *wire.ProgressEvent
	// Record is carried by value: records are the one push whose count
	// scales with the simulation, and a pointer would cost an allocation
	// each.
	Record wire.Record
	Done   *wire.DoneEvent
}

// Subscriber is one consumer of session push events — in the daemon, one
// per connection, receiving the interleaved streams of every session the
// connection watches (pushes carry their session ID). Events of one
// session arrive in exact engine order.
//
// Delivery is blocking with a buffer: a subscriber that stops consuming
// exerts backpressure on the publishing session (the simulation
// goroutine parks in the send), never loses events, and releases the
// publisher the moment it is closed.
type Subscriber struct {
	c    chan Push
	quit chan struct{}
	once sync.Once
}

// NewSubscriber returns a subscriber with the given channel buffer
// (minimum 1).
func NewSubscriber(buffer int) *Subscriber {
	if buffer < 1 {
		buffer = 1
	}
	return &Subscriber{c: make(chan Push, buffer), quit: make(chan struct{})}
}

// C is the event channel. It is never closed — consumers stop on the
// Done push of the session they follow, or when their connection dies
// and they Close the subscriber.
func (s *Subscriber) C() <-chan Push { return s.c }

// Close detaches the subscriber: publishers skip it from now on, and any
// publisher blocked on its buffer unparks. Close is idempotent.
func (s *Subscriber) Close() {
	s.once.Do(func() { close(s.quit) })
}

// send delivers *p unless the subscriber is closed.
func (s *Subscriber) send(p *Push) {
	select {
	case <-s.quit:
	case s.c <- *p:
	}
}

// closed reports whether Close was called.
func (s *Subscriber) closed() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}
