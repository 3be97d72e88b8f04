package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
)

// Client is a horse-wire client over one connection: synchronous calls
// (Submit, Status, List, Cancel, Retire, Watch) multiplexed with
// server-push session streams. It is safe for concurrent use; one
// background goroutine reads frames and routes responses to callers and
// events to their session's Stream.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	welcome Welcome

	writeMu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Frame
	streams map[string]*Stream
	readErr error

	// Reader-goroutine state: the canonical Record-frame prefix under the
	// negotiated version, the chunk Event.Record pointers are handed out
	// of, and the events decoded in the current read burst, all bound for
	// the stream burstTo.
	recHead string
	slab    []Record
	burst   []Event
	burstTo *Stream
}

// Sizes of the reader's buffers. The read buffer bounds a burst: every
// complete frame one Read returned is decoded before the stream's
// consumers are woken, once.
const (
	readBufBytes = 64 << 10
	recordSlab   = 256 // Records per allocation
)

// DecodeError reports a line from the server that is not a frame (Session
// and Event empty: the connection fails) or an event whose payload does
// not decode (that session's stream fails; Recv and Drain return it once
// the events before it are consumed).
type DecodeError struct {
	Session string
	Event   string
	Err     error
}

func (e *DecodeError) Error() string {
	if e.Event == "" {
		return fmt.Sprintf("wire: bad frame: %v", e.Err)
	}
	return fmt.Sprintf("wire: session %s: bad %s event: %v", e.Session, e.Event, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// Dial connects and performs the Hello handshake offering every version
// this package speaks. network/addr are net.Dial arguments ("unix",
// "/run/horsed.sock" or "tcp", "host:port").
func Dial(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	c, err := NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// DialAddr dials a scheme-prefixed address: "unix:/path/to.sock" or
// "tcp:host:port" (a bare path containing a slash counts as unix,
// anything else as tcp).
func DialAddr(addr string) (*Client, error) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return Dial("unix", strings.TrimPrefix(addr, "unix:"))
	case strings.HasPrefix(addr, "tcp:"):
		return Dial("tcp", strings.TrimPrefix(addr, "tcp:"))
	case strings.Contains(addr, "/"):
		return Dial("unix", addr)
	default:
		return Dial("tcp", addr)
	}
}

// NewClient performs the handshake on an established connection and
// starts the frame reader.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, readBufBytes),
		pending: map[uint64]chan *Frame{},
		streams: map[string]*Stream{},
	}
	params, _ := json.Marshal(HelloParams{Versions: Versions})
	hello := Frame{V: Versions[len(Versions)-1], ID: 1, Method: MethodHello, Params: params}
	c.nextID = 1
	if err := c.write(&hello); err != nil {
		return nil, err
	}
	// The handshake response is read synchronously, before the reader
	// goroutine exists: nothing else can arrive first.
	line, err := c.readLine()
	if err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	var resp Frame
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", &DecodeError{Err: err})
	}
	if resp.Error != nil {
		return nil, resp.Error
	}
	if err := json.Unmarshal(resp.Result, &c.welcome); err != nil {
		return nil, fmt.Errorf("wire: handshake: %w", err)
	}
	c.recHead = recordFramePrefix(c.welcome.Version)
	go c.readLoop()
	return c, nil
}

// Version returns the negotiated protocol version.
func (c *Client) Version() string { return c.welcome.Version }

// Server returns the server identity from the handshake.
func (c *Client) Server() string { return c.welcome.Server }

// Close tears the connection down; pending calls and open streams fail.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) write(f *Frame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	_, err = c.conn.Write(b)
	return err
}

// readLine returns the next newline-terminated line. It aliases the read
// buffer, so it is valid until the next call — except a line longer than
// the buffer, which is assembled in a slice of its own.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := append([]byte(nil), line...)
	for err == bufio.ErrBufferFull {
		line, err = c.br.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// readLoop routes frames until the connection fails. Events are gathered
// per read burst: they reach their stream when no further complete line
// is buffered, so consumers are woken once per burst, and never wait on
// bytes the server has not sent yet.
func (c *Client) readLoop() {
	for {
		line, err := c.readLine()
		if err == nil {
			err = c.route(line)
		}
		if err != nil {
			c.flushBurst()
			c.fail(err)
			return
		}
		if buffered, _ := c.br.Peek(c.br.Buffered()); bytes.IndexByte(buffered, '\n') < 0 {
			c.flushBurst()
		}
	}
}

// route handles one line: a canonical Record frame on the fast path,
// anything else through encoding/json. A returned error fails the
// connection.
func (c *Client) route(line []byte) error {
	if len(c.slab) == 0 {
		c.slab = make([]Record, recordSlab)
	}
	rec := &c.slab[0] // consumed only if this line turns out to be a Record
	if session, ok := decodeRecordFrame(line, c.recHead, rec); ok {
		c.slab = c.slab[1:]
		c.enqueue(c.stream(session), Event{Kind: EventRecord, Record: rec})
		return nil
	}

	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		return &DecodeError{Err: err}
	}
	switch {
	case f.ID != 0:
		c.mu.Lock()
		ch := c.pending[f.ID]
		delete(c.pending, f.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- &f
		}
	case f.Event != "" && f.Session != "":
		st := c.stream([]byte(f.Session))
		ev := Event{Kind: f.Event}
		var err error
		switch f.Event {
		case EventProgress:
			ev.Progress = &ProgressEvent{}
			err = json.Unmarshal(f.Data, ev.Progress)
		case EventRecord:
			c.slab = c.slab[1:]
			ev.Record = rec
			err = json.Unmarshal(f.Data, rec)
		case EventDone:
			ev.Done = &DoneEvent{}
			err = json.Unmarshal(f.Data, ev.Done)
		default:
			return nil // an event kind newer than this client: skip it
		}
		if err != nil {
			// Only this session is unreadable; the events before the bad
			// one stay deliverable, the connection stays up.
			c.flushBurst()
			st.fail(&DecodeError{Session: f.Session, Event: f.Event, Err: err})
			return nil
		}
		c.enqueue(st, ev)
	}
	return nil
}

// stream returns the session's stream. Consecutive events almost always
// share a session, so the burst's stream is checked before the map.
func (c *Client) stream(session []byte) *Stream {
	if st := c.burstTo; st != nil && st.session == string(session) {
		return st
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.streams[string(session)]; st != nil {
		return st
	}
	return c.ensureStreamLocked(string(session))
}

// enqueue adds ev to the burst, delivering the pending events first if
// they belong to another stream.
func (c *Client) enqueue(st *Stream, ev Event) {
	if st != c.burstTo {
		c.flushBurst()
		c.burstTo = st
	}
	c.burst = append(c.burst, ev)
}

func (c *Client) flushBurst() {
	if len(c.burst) == 0 {
		return
	}
	c.burstTo.push(c.burst)
	clear(c.burst) // the stream holds the Event pointers now
	c.burst = c.burst[:0]
}

func (c *Client) fail(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	c.mu.Lock()
	c.readErr = err
	pend := c.pending
	c.pending = map[uint64]chan *Frame{}
	streams := c.streams
	c.mu.Unlock()
	for _, ch := range pend {
		ch <- &Frame{Error: &Error{Code: CodeInternal, Message: err.Error()}}
	}
	for _, st := range streams {
		st.fail(err)
	}
}

// ensureStreamLocked returns the session's stream, creating a buffering
// one if none exists yet — events that race ahead of the caller
// attaching (the server pushes as soon as the Submit response is out)
// are buffered, never lost.
func (c *Client) ensureStreamLocked(session string) *Stream {
	st := c.streams[session]
	if st == nil {
		st = newStream(session)
		c.streams[session] = st
	}
	return st
}

// Call performs one raw request. Most callers want the typed wrappers.
func (c *Client) Call(method string, params, result interface{}) error {
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			return err
		}
		raw = b
	}
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	ch := make(chan *Frame, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.write(&Frame{V: c.welcome.Version, ID: id, Method: method, Params: raw}); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}
	resp := <-ch
	if resp.Error != nil {
		return resp.Error
	}
	if result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return fmt.Errorf("wire: %s result: %w", method, err)
		}
	}
	return nil
}

// Submit submits a session. When p.Stream is set, the returned Stream
// carries the session's push events (Progress, Record, Done); otherwise
// it is nil and a later Watch can replay the retained results.
func (c *Client) Submit(p SubmitParams) (SessionStatus, *Stream, error) {
	var st SessionStatus
	if err := c.Call(MethodSubmit, p, &st); err != nil {
		return SessionStatus{}, nil, err
	}
	if !p.Stream {
		return st, nil, nil
	}
	c.mu.Lock()
	stream := c.ensureStreamLocked(st.Session)
	c.mu.Unlock()
	return st, stream, nil
}

// Status inspects one session.
func (c *Client) Status(session string) (SessionStatus, error) {
	var st SessionStatus
	err := c.Call(MethodStatus, SessionParams{Session: session}, &st)
	return st, err
}

// List lists every session in submission order.
func (c *Client) List() ([]SessionStatus, error) {
	var res ListResult
	err := c.Call(MethodList, struct{}{}, &res)
	return res.Sessions, err
}

// Cancel cancels a queued or running session and returns its post-cancel
// status.
func (c *Client) Cancel(session string) (SessionStatus, error) {
	var st SessionStatus
	err := c.Call(MethodCancel, SessionParams{Session: session}, &st)
	return st, err
}

// Retire removes a terminal session from the daemon.
func (c *Client) Retire(session string) (SessionStatus, error) {
	var st SessionStatus
	err := c.Call(MethodRetire, SessionParams{Session: session}, &st)
	return st, err
}

// Watch subscribes to a session's push events. For a finished session
// that retained its results, the stream replays every record and closes
// with the Done event.
func (c *Client) Watch(session string) (SessionStatus, *Stream, error) {
	var st SessionStatus
	if err := c.Call(MethodWatch, SessionParams{Session: session}, &st); err != nil {
		return SessionStatus{}, nil, err
	}
	c.mu.Lock()
	stream := c.ensureStreamLocked(session)
	c.mu.Unlock()
	stream.rearm()
	return st, stream, nil
}

// Event is one element of a session stream.
type Event struct {
	// Kind is EventProgress, EventRecord, or EventDone.
	Kind     string
	Progress *ProgressEvent
	Record   *Record
	Done     *DoneEvent
}

// Stream is the ordered event stream of one session on one connection.
// Events buffer client-side until consumed, so a slow consumer never
// loses records.
type Stream struct {
	session string

	mu   sync.Mutex
	cond *sync.Cond
	buf  []Event // buf[head:] is unconsumed
	head int
	done bool
	err  error
}

func newStream(session string) *Stream {
	s := &Stream{session: session}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Session returns the stream's session ID.
func (s *Stream) Session() string { return s.session }

// push appends one burst of events (copying them) and wakes consumers
// once. A failed stream accepts nothing more: its consumers are told of
// the failure, not handed a stream with a hole in it.
func (s *Stream) push(evs []Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if s.head > 0 && s.head >= len(s.buf)/2 {
		// At least half the buffer is consumed: slide the rest down so a
		// consumer that lags without ever catching up keeps it bounded by
		// its backlog.
		n := copy(s.buf, s.buf[s.head:])
		clear(s.buf[n:])
		s.buf, s.head = s.buf[:n], 0
	}
	s.buf = append(s.buf, evs...)
	for i := range evs {
		if evs[i].Done != nil {
			s.done = true
		}
	}
	s.cond.Broadcast()
}

// rearm clears a consumed Done marker so a repeated Watch on the same
// connection can receive the replayed stream. (Each Watch should be
// drained before the next; interleaved watches of one session on one
// connection are not supported.)
func (s *Stream) rearm() {
	s.mu.Lock()
	if s.done && s.head == len(s.buf) {
		s.done = false
	}
	s.mu.Unlock()
}

func (s *Stream) fail(err error) {
	s.mu.Lock()
	if !s.done && s.err == nil {
		s.err = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Recv returns the next event, blocking until one arrives. After the
// Done event has been consumed it returns io.EOF; a connection failure
// or an undecodable event (*DecodeError) before Done surfaces as that
// error, after the events that preceded it.
func (s *Stream) Recv() (Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.head < len(s.buf) {
			ev := s.buf[s.head]
			s.buf[s.head] = Event{}
			s.head++
			if s.head == len(s.buf) {
				s.buf, s.head = s.buf[:0], 0
			}
			return ev, nil
		}
		if s.done {
			return Event{}, io.EOF
		}
		if s.err != nil {
			return Event{}, s.err
		}
		s.cond.Wait()
	}
}

// Drain consumes the stream to completion, invoking the callbacks per
// event kind (nil callbacks skip), and returns the Done event.
func (s *Stream) Drain(onProgress func(ProgressEvent), onRecord func(Record)) (DoneEvent, error) {
	for {
		ev, err := s.Recv()
		if err == io.EOF {
			return DoneEvent{}, io.ErrUnexpectedEOF
		}
		if err != nil {
			return DoneEvent{}, err
		}
		switch ev.Kind {
		case EventProgress:
			if onProgress != nil {
				onProgress(*ev.Progress)
			}
		case EventRecord:
			if onRecord != nil {
				onRecord(*ev.Record)
			}
		case EventDone:
			return *ev.Done, nil
		}
	}
}
