package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"horse/api/wire"
	"horse/internal/service"
	"horse/internal/simtime"
)

// serve runs a wire server for mgr on l until the test ends.
func serve(t *testing.T, mgr *service.Manager, l net.Listener) *service.Server {
	t.Helper()
	srv := service.NewServer(mgr, "horsed-test")
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv
}

// pipeListener hands the server one end of an in-memory pipe per dial.
// A net.Pipe has no buffer at all, so whatever the peer has not read is
// held server-side — which is what the backpressure test measures.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	near, far := net.Pipe()
	select {
	case l.conns <- far:
	case <-time.After(30 * time.Second):
		t.Fatal("server is not accepting")
	}
	t.Cleanup(func() { near.Close() })
	return near
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// rawPeer speaks horse-wire by hand, so tests see the server's bytes and
// decide when to read them.
type rawPeer struct {
	t      *testing.T
	conn   net.Conn
	br     *bufio.Reader
	nextID uint64
	events [][]byte // event lines that arrived ahead of a response
}

func newRawPeer(t *testing.T, conn net.Conn) *rawPeer {
	t.Helper()
	p := &rawPeer{t: t, conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	var w wire.Welcome
	p.call(wire.MethodHello, wire.HelloParams{Versions: wire.Versions}, &w)
	if w.Version != wire.V1 {
		t.Fatalf("welcome %+v", w)
	}
	return p
}

func (p *rawPeer) readLine() []byte {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(60 * time.Second))
	line, err := p.br.ReadBytes('\n')
	if err != nil {
		p.t.Fatalf("raw peer read: %v", err)
	}
	return line
}

// call performs one request; event frames that overtake the response are
// kept for nextEvent.
func (p *rawPeer) call(method string, params, result interface{}) {
	p.t.Helper()
	p.nextID++
	raw, _ := json.Marshal(params)
	req, _ := json.Marshal(&wire.Frame{V: wire.V1, ID: p.nextID, Method: method, Params: raw})
	if _, err := p.conn.Write(append(req, '\n')); err != nil {
		p.t.Fatal(err)
	}
	for {
		line := p.readLine()
		var f wire.Frame
		if err := json.Unmarshal(line, &f); err != nil {
			p.t.Fatalf("bad frame %q: %v", line, err)
		}
		if f.ID == 0 {
			p.events = append(p.events, line)
			continue
		}
		if f.ID != p.nextID || f.Error != nil {
			p.t.Fatalf("%s: response %s", method, line)
		}
		if err := json.Unmarshal(f.Result, result); err != nil {
			p.t.Fatalf("%s result: %v", method, err)
		}
		return
	}
}

// nextEvent returns the next event frame: the raw line and its envelope.
func (p *rawPeer) nextEvent() ([]byte, wire.Frame) {
	p.t.Helper()
	var line []byte
	if len(p.events) > 0 {
		line, p.events = p.events[0], p.events[1:]
	} else {
		line = p.readLine()
	}
	var f wire.Frame
	if err := json.Unmarshal(line, &f); err != nil || f.Event == "" {
		p.t.Fatalf("not an event frame: %q (%v)", line, err)
	}
	return line, f
}

// sessionFrames reads the session's event stream to its Done frame and
// returns the Record lines, the other lines, in order.
func (p *rawPeer) sessionFrames() (records, others [][]byte) {
	p.t.Helper()
	for {
		line, f := p.nextEvent()
		if f.Event == wire.EventRecord {
			records = append(records, line)
			continue
		}
		others = append(others, line)
		if f.Event == wire.EventDone {
			return records, others
		}
	}
}

// TestIdleFlush: a session that emits a record and then stalls must
// deliver that record right away — the pump flushes when its queue runs
// empty, not when a buffer fills. The stall is real: a second subscriber
// follows the session to its first record and then stops consuming, which
// parks the session within two more pushes.
func TestIdleFlush(t *testing.T) {
	mgr := service.New(service.Config{MaxSessions: 1, ProgressEvery: simtime.Millisecond})
	u := listenUnix(t)
	serve(t, mgr, u.l)
	c := dialTest(t, u.addr)

	// A holds the only slot, so B queues and can be given its second
	// subscriber before it starts.
	a, subA := parkedSession(t, mgr)
	st, stream, err := c.Submit(wire.SubmitParams{Spec: *flowSpec(), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.StateQueued {
		t.Fatalf("B admitted at %q, want queued", st.State)
	}
	stall := service.NewSubscriber(1)
	defer stall.Close()
	if _, err := mgr.Watch(st.Session, stall); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Cancel(a.Session); err != nil {
		t.Fatal(err)
	}
	subA.Close()
	for timeout := time.After(60 * time.Second); ; {
		select {
		case p := <-stall.C():
			if p.Event != wire.EventRecord {
				continue
			}
		case <-timeout:
			t.Fatal("B published no record within 60s")
		}
		break
	}

	// B is parked, or about to be, a couple of hundred bytes into its
	// stream. The record must arrive regardless.
	got := make(chan error, 1)
	records := 0
	go func() {
		for {
			ev, err := stream.Recv()
			if err != nil || ev.Kind == wire.EventRecord {
				got <- err
				return
			}
		}
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
		records++
	case <-time.After(30 * time.Second):
		t.Fatal("the first record was not delivered while the session stalled")
	}
	if cur, err := mgr.Status(st.Session); err != nil || cur.State != wire.StateRunning {
		t.Fatalf("B is %+v (%v), want running and parked", cur, err)
	}

	stall.Close() // unpark B
	done, err := stream.Drain(nil, func(wire.Record) { records++ })
	if err != nil || done.State != wire.StateDone || records != 2 {
		t.Fatalf("after unparking: %d records in all, done %+v, err %v", records, done, err)
	}
}

// TestBackpressureBounded: against a client that stops reading, the
// publishing session must block, with no more held server-side than the
// subscriber queue plus one pump buffer. The connection is an unbuffered
// pipe, so every frame the client has not read is server-side.
func TestBackpressureBounded(t *testing.T) {
	mgr := service.New(service.Config{ProgressEvery: simtime.Millisecond})
	l := newPipeListener()
	serve(t, mgr, l)
	p := newRawPeer(t, l.dial(t))

	var st wire.SessionStatus
	p.call(wire.MethodSubmit, wire.SubmitParams{Spec: *busySpec(), Stream: true}, &st)

	// Not reading. The session's progress snapshot must stop moving while
	// it is still running.
	var stalled wire.SessionStatus
	for same, deadline := 0, time.Now().Add(60*time.Second); same < 20; {
		cur, err := mgr.Status(st.Session)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State != wire.StateRunning {
			t.Fatalf("session went %q against a client that reads nothing: publishing is unbounded", cur.State)
		}
		if cur.Events > 0 && cur.Events == stalled.Events {
			same++
		} else {
			same, stalled = 0, cur
		}
		if time.Now().After(deadline) {
			t.Fatal("session neither stalled nor finished within 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Everything up to the Progress frame carrying the stalled snapshot
	// was published before the session parked, and has been waiting
	// server-side since.
	const minFrame = 80 // bytes; no event frame is shorter
	bound := service.SubscriberPushes + service.PushFlushBytes/minFrame + 2
	held := len(p.events)
	p.events = nil
	for {
		_, f := p.nextEvent()
		held++
		if f.Event == wire.EventProgress {
			var pe wire.ProgressEvent
			if err := json.Unmarshal(f.Data, &pe); err != nil {
				t.Fatal(err)
			}
			if pe.Events >= stalled.Events {
				break
			}
		}
		if held > bound {
			t.Fatalf("more than %d frames were held for a client that was not reading", bound)
		}
	}
	t.Logf("held %d frames at the stall (bound %d)", held, bound)

	// Reading again releases the session; it runs to completion.
	if _, others := p.sessionFrames(); !bytes.Contains(others[len(others)-1], []byte(`"state":"done"`)) {
		t.Fatalf("last frame %s", others[len(others)-1])
	}
}

// TestShutdownDeliversEverything: after Shutdown, every watcher holds all
// the records published since it subscribed, in engine order, and the
// final Done.
func TestShutdownDeliversEverything(t *testing.T) {
	mgr := service.New(service.Config{ProgressEvery: simtime.Millisecond})
	path := listenUnix(t)
	srv := service.NewServer(mgr, "horsed-test")
	served := make(chan error, 1)
	go func() { served <- srv.Serve(path.l) }()

	c1, c2 := dialTest(t, path.addr), dialTest(t, path.addr)
	st, s1, err := c1.Submit(wire.SubmitParams{Spec: *busySpec(), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := c2.Watch(st.Session)
	if err != nil {
		t.Fatal(err)
	}

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()

	var recs1, recs2 []wire.Record
	done1, err := s1.Drain(nil, func(r wire.Record) { recs1 = append(recs1, r) })
	if err != nil {
		t.Fatalf("submitter: %v", err)
	}
	done2, err := s2.Drain(nil, func(r wire.Record) { recs2 = append(recs2, r) })
	if err != nil {
		t.Fatalf("watcher: %v", err)
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}

	if done1.Summary == nil || done1.Summary.Records != len(recs1) {
		t.Fatalf("submitter got %d records, summary %+v", len(recs1), done1.Summary)
	}
	if done2.State != done1.State || done2.Summary == nil || *done2.Summary != *done1.Summary {
		t.Fatalf("watchers disagree on Done: %+v vs %+v", done1, done2)
	}
	// Engine order: up to the stop-instant flush of in-flight flows, the
	// stream is the one-shot run's, record for record.
	full := oneShotRecords(t, busySpec())
	settled := len(recs1)
	for settled > 0 && (recs1[settled-1].Outcome == "running" || recs1[settled-1].Outcome == "waiting") {
		settled--
	}
	assertRecordsEqual(t, "submitter prefix", recs1[:settled], full[:settled])
	// The late watcher missed a prefix and nothing else.
	if len(recs2) > len(recs1) {
		t.Fatalf("watcher got %d records, submitter %d", len(recs2), len(recs1))
	}
	assertRecordsEqual(t, "watcher suffix", recs2, recs1[len(recs1)-len(recs2):])
}

// TestStreamedAndReplayedFramesIdentical: a streamed run and a retained
// run replayed by Watch put the same Record frames on the socket, byte
// for byte — and they are the bytes json.Marshal produces for those
// records, which is what the server wrote before it had an encoder of
// its own.
func TestStreamedAndReplayedFramesIdentical(t *testing.T) {
	spec := busySpec()

	// Each run gets a daemon of its own, so both sessions are "s1".
	streamed := newRawPeer(t, dialRawUnix(t, startServer(t, service.Config{})))
	var st wire.SessionStatus
	streamed.call(wire.MethodSubmit, wire.SubmitParams{Spec: *spec, Stream: true}, &st)
	live, liveOthers := streamed.sessionFrames()

	retained := newRawPeer(t, dialRawUnix(t, startServer(t, service.Config{})))
	retained.call(wire.MethodSubmit, wire.SubmitParams{Spec: *spec}, &st)
	for deadline := time.Now().Add(60 * time.Second); st.State != wire.StateDone; {
		if time.Now().After(deadline) {
			t.Fatalf("retained session still %s after 60s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
		retained.call(wire.MethodStatus, wire.SessionParams{Session: st.Session}, &st)
	}
	retained.call(wire.MethodWatch, wire.SessionParams{Session: st.Session}, &st)
	replayed, replayedOthers := retained.sessionFrames()

	var want [][]byte
	for _, rec := range oneShotRecords(t, spec) {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(&wire.Frame{V: wire.V1, Event: wire.EventRecord, Session: "s1", Data: data})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, append(b, '\n'))
	}
	if len(want) < 1000 {
		t.Fatalf("only %d records: not much of a stream", len(want))
	}
	for name, got := range map[string][][]byte{"streamed": live, "replayed": replayed} {
		if len(got) != len(want) {
			t.Fatalf("%s: %d Record frames, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%s: Record frame %d:\n got  %s want %s", name, i, got[i], want[i])
			}
		}
	}
	// A replay is records then Done; a live stream has progress too.
	if len(replayedOthers) != 1 || len(liveOthers) < 2 {
		t.Fatalf("%d non-record frames replayed, %d live", len(replayedOthers), len(liveOthers))
	}
}

// writeCounter counts the server's Write calls on the connections it
// accepts.
type writeCounter struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: c, writes: &l.writes}, nil
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// BenchmarkServerStream is the horsed.stream path in miniature: streamed
// sessions of small flows through NewServer over a unix socket, one
// wire.Client draining them. It reports records/s end to end and the
// server's write calls per record (1 before bursts were coalesced).
func BenchmarkServerStream(b *testing.B) {
	spec := &wire.SessionSpec{
		Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 4, Spines: 2, Hosts: 4},
		Workload: wire.WorkloadSpec{Poisson: &wire.PoissonSpec{
			Seed: 1, Lambda: 20000, HorizonNs: int64(simtime.Second),
			Size: wire.SizeSpec{Kind: wire.SizeFixed, Bits: 1e4}, CBRRateBps: 2e7,
		}},
		Options: wire.OptionsSpec{Controller: []wire.AppSpec{{Kind: wire.AppECMP}}, Miss: "controller"},
	}
	path := listenUnix(b)
	l := &writeCounter{Listener: path.l}
	srv := service.NewServer(service.New(service.Config{}), "horsed-bench")
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Errorf("shutdown: %v", err)
		}
		<-served
	}()
	c, err := wire.Dial("unix", path.addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	records, streaming := 0, time.Duration(0)
	l.writes.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, stream, err := c.Submit(wire.SubmitParams{Spec: *spec, Stream: true})
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		done, err := stream.Drain(nil, func(wire.Record) { records++ })
		streaming += time.Since(t0)
		if err != nil || done.State != wire.StateDone {
			b.Fatalf("session %s: done %+v, err %v", st.Session, done, err)
		}
		if _, err := c.Retire(st.Session); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(records)/streaming.Seconds(), "records/s")
	b.ReportMetric(float64(l.writes.Load())/float64(records), "writes/record")
}
