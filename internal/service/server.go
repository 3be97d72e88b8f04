package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"horse"
	"horse/api/wire"
)

// MaxFrameBytes bounds one newline-delimited request frame. Specs are
// compact (topologies ship as builder parameters, not graphs), so this
// is generous.
const MaxFrameBytes = 8 << 20

// Server fronts a Manager with the horse-wire protocol: newline-delimited
// JSON frames over any net.Listener (the daemon serves unix sockets and
// TCP). Each connection handshakes (Hello → Welcome), then issues
// requests; one Subscriber per connection carries the interleaved push
// streams of every session it watches.
type Server struct {
	mgr  *Manager
	name string // server identity string for the Welcome

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// NewServer wraps mgr. name is the identity string sent in Welcome
// frames (e.g. "horsed/1.0").
func NewServer(mgr *Manager, name string) *Server {
	return &Server{
		mgr:       mgr,
		name:      name,
		listeners: map[net.Listener]struct{}{},
		conns:     map[*serverConn]struct{}{},
	}
}

// Manager returns the session manager the server fronts.
func (sv *Server) Manager() *Manager { return sv.mgr }

// Serve accepts connections on l until the listener closes (Shutdown
// closes every registered listener). It returns nil on a clean
// shutdown-induced close.
func (sv *Server) Serve(l net.Listener) error {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		l.Close()
		return errors.New("service: server closed")
	}
	sv.listeners[l] = struct{}{}
	sv.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			sv.mu.Lock()
			delete(sv.listeners, l)
			closed := sv.closed
			sv.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		sv.mu.Lock()
		if sv.closed {
			sv.mu.Unlock()
			conn.Close()
			return nil
		}
		c := &serverConn{Conn: conn, pumpDone: make(chan struct{})}
		sv.conns[c] = struct{}{}
		sv.wg.Add(1)
		sv.mu.Unlock()
		go sv.handle(c)
	}
}

// Shutdown drains gracefully: stop accepting, drain the manager —
// running sessions are cancelled and their watchers receive partial
// results and Done pushes — flush every connection's pending pushes,
// then close the connections and wait for their handlers.
func (sv *Server) Shutdown(ctx context.Context) error {
	sv.mu.Lock()
	sv.closed = true
	for l := range sv.listeners {
		l.Close()
	}
	sv.mu.Unlock()

	err := sv.mgr.Drain(ctx)

	sv.mu.Lock()
	conns := make([]*serverConn, 0, len(sv.conns))
	for c := range sv.conns {
		conns = append(conns, c)
	}
	sv.mu.Unlock()
	for _, c := range conns {
		// After Drain every publisher has finalized, so closing the
		// subscriber flips its pump into flush mode: it writes the
		// buffered pushes (the Done events among them) and exits. Wait
		// for that before cutting the socket. A connection still in its
		// handshake has no pump and nothing to flush.
		if c.pumpStarted.Load() {
			c.sub.Close()
			select {
			case <-c.pumpDone:
			case <-ctx.Done():
			}
		}
		c.Close()
	}

	done := make(chan struct{})
	go func() {
		sv.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// conn wraps one connection's write side and its subscriber pump.
type serverConn struct {
	net.Conn
	version string

	writeMu sync.Mutex // serializes response and event frames
	sub     *Subscriber
	// pumpStarted flips (with release semantics, after sub is set) when
	// the push pump starts; pumpDone closes when the pump has flushed and
	// exited — or, for pumpless connections, when the handler returns.
	pumpStarted atomic.Bool
	pumpDone    chan struct{}
}

func (c *serverConn) writeFrame(f *wire.Frame) error {
	f.V = c.version
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err = c.Write(b)
	return err
}

func (c *serverConn) respondErr(id uint64, werr *wire.Error) error {
	return c.writeFrame(&wire.Frame{ID: id, Error: werr})
}

func (c *serverConn) respond(id uint64, result interface{}) error {
	b, err := json.Marshal(result)
	if err != nil {
		return c.respondErr(id, &wire.Error{Code: wire.CodeInternal, Message: err.Error()})
	}
	return c.writeFrame(&wire.Frame{ID: id, Result: b})
}

func (sv *Server) handle(c *serverConn) {
	defer sv.wg.Done()
	defer func() {
		if c.sub != nil {
			c.sub.Close()
		}
		if !c.pumpStarted.Load() {
			close(c.pumpDone)
		}
		c.Close()
		sv.mu.Lock()
		delete(sv.conns, c)
		sv.mu.Unlock()
	}()

	sc := bufio.NewScanner(c.Conn)
	sc.Buffer(make([]byte, 64<<10), MaxFrameBytes)

	// Handshake: the first frame must be Hello. The Welcome pins the
	// version stamped on every subsequent frame.
	if !sc.Scan() {
		return
	}
	f, werr := decodeFrame(sc.Bytes())
	if werr != nil {
		c.respondErr(0, werr)
		return
	}
	if f.Method != wire.MethodHello {
		c.respondErr(f.ID, &wire.Error{Code: wire.CodeBadRequest,
			Message: fmt.Sprintf("first frame must be %s, got %q", wire.MethodHello, f.Method)})
		return
	}
	var hello wire.HelloParams
	if err := json.Unmarshal(f.Params, &hello); err != nil {
		c.respondErr(f.ID, &wire.Error{Code: wire.CodeBadRequest, Message: "bad Hello params: " + err.Error()})
		return
	}
	v, err := wire.Negotiate(hello.Versions, wire.Versions)
	if err != nil {
		c.respondErr(f.ID, &wire.Error{Code: wire.CodeVersion, Message: err.Error()})
		return
	}
	c.version = v
	if c.respond(f.ID, wire.Welcome{Version: v, Server: sv.name}) != nil {
		return
	}

	c.sub = NewSubscriber(subscriberPushes)
	c.pumpStarted.Store(true)
	go c.pump()

	for sc.Scan() {
		f, werr := decodeFrame(sc.Bytes())
		if werr != nil {
			c.respondErr(0, werr)
			return
		}
		if err := sv.dispatch(c, f); err != nil {
			return
		}
	}
	// Scanner stops on EOF (client went away) or oversized frames.
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		c.respondErr(0, &wire.Error{Code: wire.CodeBadRequest,
			Message: fmt.Sprintf("frame exceeds %d bytes", MaxFrameBytes)})
	}
}

func decodeFrame(line []byte) (*wire.Frame, *wire.Error) {
	var f wire.Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return nil, &wire.Error{Code: wire.CodeBadRequest, Message: "bad frame: " + err.Error()}
	}
	if f.ID == 0 || f.Method == "" {
		return nil, &wire.Error{Code: wire.CodeBadRequest, Message: "request frames need id and method"}
	}
	return &f, nil
}

// Bounds on what a connection buffers server-side. A session publishing
// to a client that has stopped reading parks after at most
// subscriberPushes queued pushes plus one pump buffer of encoded frames
// (plus whatever the kernel's socket buffer holds).
const (
	subscriberPushes = 256
	pushFlushBytes   = 32 << 10
)

// pump is the connection's push pump: one subscriber carries every
// watched session's events, written as event frames interleaved with
// responses at frame boundaries. It blocks for the first push of a
// burst, encodes everything already queued behind it into one buffer, and
// issues one Write — when the queue is momentarily empty or the buffer
// passes pushFlushBytes, whichever comes first, so a lone record is never
// held back waiting for company. When the subscriber closes, the pump
// writes whatever is still queued (shutdown relies on this to deliver the
// final Done events) and exits, closing pumpDone.
func (c *serverConn) pump() {
	defer close(c.pumpDone)
	buf := make([]byte, 0, pushFlushBytes+4096) // the last frame of a burst overshoots
	quit := c.sub.quit
	for {
		if quit != nil {
			select {
			case p := <-c.sub.c:
				buf = c.appendPush(buf, &p)
			case <-quit:
				quit = nil // flush mode: no more blocking
			}
		}
		for queued := true; queued && len(buf) < pushFlushBytes; {
			select {
			case p := <-c.sub.c:
				buf = c.appendPush(buf, &p)
			default:
				queued = false
			}
		}
		if len(buf) == 0 {
			return // closed and drained
		}
		c.writeMu.Lock()
		_, err := c.Write(buf)
		c.writeMu.Unlock()
		if err != nil {
			c.sub.Close()
			return
		}
		buf = buf[:0]
	}
}

// appendPush appends p's event frame and its newline to buf. Record
// frames, the per-flow volume, come from the wire package's append
// encoder; Progress and Done are rare and go through encoding/json.
func (c *serverConn) appendPush(buf []byte, p *Push) []byte {
	if p.Event == wire.EventRecord {
		buf = wire.AppendRecordFrame(buf, c.version, p.Session, &p.Record)
		return append(buf, '\n')
	}
	var payload interface{} = p.Progress
	if p.Event == wire.EventDone {
		payload = p.Done
	}
	f := wire.Frame{V: c.version, Event: p.Event, Session: p.Session}
	f.Data, _ = json.Marshal(payload) // both payloads are plain structs
	b, _ := json.Marshal(&f)
	buf = append(buf, b...)
	return append(buf, '\n')
}

// dispatch handles one request frame. A returned error tears the
// connection down (write failure); protocol-level failures go back as
// error responses and keep the connection alive.
func (sv *Server) dispatch(c *serverConn, f *wire.Frame) error {
	switch f.Method {
	case wire.MethodHello:
		return c.respondErr(f.ID, &wire.Error{Code: wire.CodeBadRequest, Message: "already greeted"})

	case wire.MethodSubmit:
		var p wire.SubmitParams
		if err := json.Unmarshal(f.Params, &p); err != nil {
			return c.respondErr(f.ID, &wire.Error{Code: wire.CodeBadRequest, Message: "bad Submit params: " + err.Error()})
		}
		var sub *Subscriber
		if p.Stream {
			sub = c.sub
		}
		st, err := sv.mgr.Submit(&p.Spec, p.Name, p.Stream, sub)
		if err != nil {
			return c.respondErr(f.ID, toWireError(err))
		}
		return c.respond(f.ID, st)

	case wire.MethodStatus:
		return sv.sessionCall(c, f, sv.mgr.Status)

	case wire.MethodList:
		return c.respond(f.ID, wire.ListResult{Sessions: sv.mgr.List()})

	case wire.MethodCancel:
		return sv.sessionCall(c, f, sv.mgr.Cancel)

	case wire.MethodRetire:
		return sv.sessionCall(c, f, sv.mgr.Retire)

	case wire.MethodWatch:
		return sv.sessionCall(c, f, func(id string) (wire.SessionStatus, error) {
			return sv.mgr.Watch(id, c.sub)
		})

	default:
		return c.respondErr(f.ID, &wire.Error{Code: wire.CodeBadRequest,
			Message: fmt.Sprintf("unknown method %q", f.Method)})
	}
}

func (sv *Server) sessionCall(c *serverConn, f *wire.Frame, fn func(string) (wire.SessionStatus, error)) error {
	var p wire.SessionParams
	if err := json.Unmarshal(f.Params, &p); err != nil {
		return c.respondErr(f.ID, &wire.Error{Code: wire.CodeBadRequest, Message: "bad session params: " + err.Error()})
	}
	st, err := fn(p.Session)
	if err != nil {
		return c.respondErr(f.ID, toWireError(err))
	}
	return c.respond(f.ID, st)
}

// toWireError maps manager and builder errors onto wire error codes, so
// clients can branch without parsing messages.
func toWireError(err error) *wire.Error {
	var (
		buildErr     *horse.BuildError
		specErr      *wire.SpecError
		eventErr     *horse.ScenarioEventError
		queueFull    *QueueFullError
		notFound     *NotFoundError
		notRetirable *NotRetirableError
	)
	switch {
	case errors.As(err, &buildErr), errors.As(err, &specErr), errors.As(err, &eventErr):
		return &wire.Error{Code: wire.CodeBadSpec, Message: err.Error()}
	case errors.Is(err, ErrDraining):
		return &wire.Error{Code: wire.CodeDraining, Message: err.Error()}
	case errors.As(err, &queueFull):
		return &wire.Error{Code: wire.CodeQueueFull, Message: err.Error()}
	case errors.As(err, &notFound):
		return &wire.Error{Code: wire.CodeNotFound, Message: err.Error()}
	case errors.As(err, &notRetirable):
		return &wire.Error{Code: wire.CodeNotRetirable, Message: err.Error()}
	default:
		return &wire.Error{Code: wire.CodeInternal, Message: err.Error()}
	}
}
