package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"horse/api/wire"
	"horse/internal/service"
	"horse/internal/simtime"
)

// unixListener is a listening unix socket and the path to dial it by.
type unixListener struct {
	l    net.Listener
	addr string
}

func listenUnix(t testing.TB) unixListener {
	t.Helper()
	// t.TempDir can exceed the unix socket path limit; use a short one.
	dir, err := os.MkdirTemp("", "horsed")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	path := filepath.Join(dir, "s.sock")
	l, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	return unixListener{l: l, addr: path}
}

// startServer runs a wire server on a unix socket and returns its
// address. Everything is torn down with the test.
func startServer(t *testing.T, cfg service.Config) string {
	t.Helper()
	u := listenUnix(t)
	serve(t, service.New(cfg), u.l)
	return u.addr
}

// dialRawUnix connects without a wire.Client: the test speaks the
// protocol itself.
func dialRawUnix(t *testing.T, path string) net.Conn {
	t.Helper()
	conn, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func dialTest(t *testing.T, path string) *wire.Client {
	t.Helper()
	c, err := wire.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerStreamedSubmitParity(t *testing.T) {
	path := startServer(t, service.Config{})
	c := dialTest(t, path)
	if c.Version() != wire.V1 || c.Server() != "horsed-test" {
		t.Fatalf("handshake: version %q server %q", c.Version(), c.Server())
	}

	st, stream, err := c.Submit(wire.SubmitParams{Name: "e2e", Spec: *flowSpec(), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if stream == nil {
		t.Fatal("streamed submit returned no stream")
	}
	var recs []wire.Record
	done, err := stream.Drain(nil, func(r wire.Record) { recs = append(recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	if done.State != wire.StateDone {
		t.Fatalf("done %+v", done)
	}
	// The wire-delivered records must be byte-identical to a one-shot
	// in-process run of the same spec.
	assertRecordsEqual(t, "wire stream", recs, oneShotRecords(t, flowSpec()))

	got, err := c.Status(st.Session)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != wire.StateDone || got.Name != "e2e" || got.Summary == nil {
		t.Fatalf("status %+v", got)
	}
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Session != st.Session {
		t.Fatalf("list %+v", list)
	}
	if _, err := c.Retire(st.Session); err != nil {
		t.Fatal(err)
	}
}

func TestServerWatchReplay(t *testing.T) {
	path := startServer(t, service.Config{})
	c := dialTest(t, path)

	st, stream, err := c.Submit(wire.SubmitParams{Spec: *flowSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if stream != nil {
		t.Fatal("non-streamed submit returned a stream")
	}
	waitTerminal(t, c, st.Session)

	// Watch replays the retained records — from a second connection too.
	c2 := dialTest(t, path)
	for round, cl := range []*wire.Client{c, c2} {
		_, stream, err := cl.Watch(st.Session)
		if err != nil {
			t.Fatal(err)
		}
		var recs []wire.Record
		done, err := stream.Drain(nil, func(r wire.Record) { recs = append(recs, r) })
		if err != nil {
			t.Fatal(err)
		}
		if done.State != wire.StateDone {
			t.Fatalf("round %d: done %+v", round, done)
		}
		assertRecordsEqual(t, "watch replay", recs, oneShotRecords(t, flowSpec()))
	}
}

func waitTerminal(t *testing.T, c *wire.Client, session string) wire.SessionStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := c.Status(session)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case wire.StateDone, wire.StateCanceled, wire.StateFailed:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s still %s after 60s", session, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerCancelMidRun(t *testing.T) {
	path := startServer(t, service.Config{ProgressEvery: simtime.Millisecond})
	c := dialTest(t, path)

	st, stream, err := c.Submit(wire.SubmitParams{Spec: *busySpec(), Stream: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cancel(st.Session); err != nil {
		t.Fatal(err)
	}
	var recs []wire.Record
	done, err := stream.Drain(nil, func(r wire.Record) { recs = append(recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	// Usually canceled; done only if the session outran the cancel.
	switch done.State {
	case wire.StateCanceled, wire.StateDone:
	default:
		t.Fatalf("done %+v", done)
	}
	if done.Summary == nil || done.Summary.Records != len(recs) {
		t.Fatalf("summary %+v does not match %d streamed records", done.Summary, len(recs))
	}
}

func TestServerErrorCodes(t *testing.T) {
	path := startServer(t, service.Config{})
	c := dialTest(t, path)

	expectCode := func(err error, code string) {
		t.Helper()
		var werr *wire.Error
		if !errors.As(err, &werr) {
			t.Fatalf("error %v is not a *wire.Error", err)
		}
		if werr.Code != code {
			t.Fatalf("error code %q (%s), want %q", werr.Code, werr.Message, code)
		}
	}

	bad := flowSpec()
	bad.Workload.Demands[0].Dst = "nowhere"
	_, _, err := c.Submit(wire.SubmitParams{Spec: *bad})
	expectCode(err, wire.CodeBadSpec)

	_, err = c.Status("s999")
	expectCode(err, wire.CodeNotFound)

	err = c.Call("Explode", struct{}{}, nil)
	expectCode(err, wire.CodeBadRequest)
}

// TestServerVersionNegotiation speaks the handshake by hand: an
// incompatible client must be rejected with a version-mismatch error.
func TestServerVersionNegotiation(t *testing.T) {
	path := startServer(t, service.Config{})
	conn, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	params, _ := json.Marshal(wire.HelloParams{Versions: []string{"horse-wire/v0"}})
	frame, _ := json.Marshal(wire.Frame{ID: 1, Method: wire.MethodHello, Params: params})
	if _, err := conn.Write(append(frame, '\n')); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Frame
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == nil || resp.Error.Code != wire.CodeVersion {
		t.Fatalf("response %+v, want %s error", resp, wire.CodeVersion)
	}
}

// TestServerShutdownDrains verifies graceful drain: a running streamed
// session ends with a canceled Done carrying partial-but-consistent
// results, and Serve returns cleanly.
func TestServerShutdownDrains(t *testing.T) {
	dir, err := os.MkdirTemp("", "horsed")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	pathSock := filepath.Join(dir, "s.sock")
	l, err := net.Listen("unix", pathSock)
	if err != nil {
		t.Fatal(err)
	}
	srv := service.NewServer(service.New(service.Config{ProgressEvery: simtime.Millisecond}), "horsed-test")
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	c, err := wire.Dial("unix", pathSock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, stream, err := c.Submit(wire.SubmitParams{Spec: *busySpec(), Stream: true})
	if err != nil {
		t.Fatal(err)
	}

	shutdown := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdown <- srv.Shutdown(ctx)
	}()

	var recs []wire.Record
	done, err := stream.Drain(nil, func(r wire.Record) { recs = append(recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	switch done.State {
	case wire.StateCanceled, wire.StateDone:
	default:
		t.Fatalf("drained session finished %q (%s)", done.State, done.Error)
	}
	if done.Summary == nil || done.Summary.Records != len(recs) {
		t.Fatalf("summary %+v does not match %d streamed records", done.Summary, len(recs))
	}
	if err := <-shutdown; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// A draining (now closed) server accepts no new connections.
	if _, err := net.Dial("unix", pathSock); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
