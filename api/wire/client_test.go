package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
)

// fakeServer is the far end of a pipe speaking just enough horse-wire
// for a Client to attach: it answers the handshake and one Watch call,
// then writes script verbatim, in chunks of at most chunk bytes (0 means
// one Write), and holds the connection open until the test ends. The
// returned stream is the watched session's.
func fakeServer(t *testing.T, session string, script []byte, chunk int) *Stream {
	t.Helper()
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close(); far.Close() })

	go func() {
		br := bufio.NewReader(far)
		respond := func(result interface{}) bool {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return false
			}
			var req Frame
			if err := json.Unmarshal(line, &req); err != nil {
				t.Errorf("fake server: bad request %q: %v", line, err)
				return false
			}
			res, _ := json.Marshal(result)
			b, _ := json.Marshal(&Frame{V: V1, ID: req.ID, Result: res})
			_, err = far.Write(append(b, '\n'))
			return err == nil
		}
		if !respond(Welcome{Version: V1, Server: "fake"}) ||
			!respond(SessionStatus{Session: session, State: StateRunning}) {
			return
		}
		if chunk <= 0 {
			chunk = len(script)
		}
		for len(script) > 0 {
			n := min(chunk, len(script))
			if _, err := far.Write(script[:n]); err != nil {
				return
			}
			script = script[n:]
		}
	}()

	c, err := NewClient(near)
	if err != nil {
		t.Fatal(err)
	}
	_, stream, err := c.Watch(session)
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

func recordLine(t *testing.T, session string, id int64) string {
	t.Helper()
	rec := Record{ID: id, ArrivalNs: id * 10, EndNs: id*10 + 5, SizeBits: 1e4, SentBits: 1e4,
		Completed: true, Outcome: "completed", PathLen: 4}
	return string(jsonRecordFrame(t, V1, session, &rec)) + "\n"
}

const doneLine = `{"v":"horse-wire/v1","event":"Done","session":"s1","data":{"state":"done"}}` + "\n"

// TestStreamFailsOnBadRecord: a Record frame whose payload does not
// decode used to vanish, leaving the client one record short with no
// error. It must fail the stream with a *DecodeError, after the events
// that preceded it and instead of everything that follows.
func TestStreamFailsOnBadRecord(t *testing.T) {
	bad := `{"v":"horse-wire/v1","event":"Record","session":"s1","data":{"id":"three"}}` + "\n"
	script := recordLine(t, "s1", 1) + bad + recordLine(t, "s1", 3) + doneLine

	expectFailure := func(t *testing.T, err error) {
		t.Helper()
		var derr *DecodeError
		if !errors.As(err, &derr) {
			t.Fatalf("error %v, want *DecodeError", err)
		}
		if derr.Session != "s1" || derr.Event != EventRecord || derr.Err == nil {
			t.Fatalf("decode error %+v", derr)
		}
	}

	t.Run("Recv", func(t *testing.T) {
		stream := fakeServer(t, "s1", []byte(script), 0)
		ev, err := stream.Recv()
		if err != nil || ev.Kind != EventRecord || ev.Record.ID != 1 {
			t.Fatalf("first event %+v, err %v", ev, err)
		}
		for i := 0; i < 2; i++ { // the failure is sticky
			_, err = stream.Recv()
			expectFailure(t, err)
		}
	})
	t.Run("Drain", func(t *testing.T) {
		stream := fakeServer(t, "s1", []byte(script), 0)
		n := 0
		_, err := stream.Drain(nil, func(Record) { n++ })
		expectFailure(t, err)
		if n != 1 {
			t.Fatalf("drained %d records before the failure, want 1", n)
		}
	})
	t.Run("bad Done", func(t *testing.T) {
		badDone := `{"v":"horse-wire/v1","event":"Done","session":"s1","data":{"state":7}}` + "\n"
		stream := fakeServer(t, "s1", []byte(recordLine(t, "s1", 1)+badDone), 0)
		_, err := stream.Drain(nil, nil)
		var derr *DecodeError
		if !errors.As(err, &derr) || derr.Event != EventDone {
			t.Fatalf("error %v, want a Done *DecodeError", err)
		}
	})
}

// TestStreamFailsOnBadFrame: a line that is not a frame at all — one the
// fast path declines and encoding/json rejects — fails the connection,
// and with it the stream, with a *DecodeError naming no session.
func TestStreamFailsOnBadFrame(t *testing.T) {
	canon := recordLine(t, "s1", 2)
	torn := canon[:len(canon)-3] + "\n" // a canonical frame cut short
	stream := fakeServer(t, "s1", []byte(recordLine(t, "s1", 1)+torn+doneLine), 0)
	ev, err := stream.Recv()
	if err != nil || ev.Record == nil || ev.Record.ID != 1 {
		t.Fatalf("first event %+v, err %v", ev, err)
	}
	_, err = stream.Recv()
	var derr *DecodeError
	if !errors.As(err, &derr) || derr.Session != "" || derr.Event != "" {
		t.Fatalf("error %v, want a frame-level *DecodeError", err)
	}
}

// TestClientDecodesOldStylePeer: a peer that writes Record frames some
// other valid way (fields re-ordered, strings escaped, whitespace, the
// pre-"punts" shape of the v1 fixture) is still decoded correctly — the
// canonical form is an optimization, not a requirement on servers.
func TestClientDecodesOldStylePeer(t *testing.T) {
	script := strings.Join([]string{
		`{"event":"Record","session":"s1","v":"horse-wire/v1","data":{"punts":2,"path_len":4,"outcome":"completed","completed":true,"sent_bits":7,"size_bits":"+inf","end_ns":9,"arrival_ns":8,"id":1}}`,
		`{"v":"horse-wire/v1","event":"Record","session":"s1","data":{"id":2,"arrival_ns":8,"end_ns":9,"size_bits":7,"sent_bits":7,"completed":false,"outcome":"dr\u006fpped \u003cx\u003e","path_len":4,"punts":0}}`,
		`{ "v": "horse-wire/v1", "event": "Record", "session": "s1", "data": { "id": 3, "outcome": "running" } }`,
		`{"v":"horse-wire/v1","event":"Record","session":"s1","data":{"id":4,"arrival_ns":1000000,"end_ns":2001000000,"size_bits":"+inf","sent_bits":20000000,"completed":true,"outcome":"completed","path_len":4}}`,
		strings.TrimSuffix(recordLine(t, "s1", 5), "\n"),
		strings.TrimSuffix(doneLine, "\n"),
	}, "\n") + "\n"
	stream := fakeServer(t, "s1", []byte(script), 0)

	var got []Record
	done, err := stream.Drain(nil, func(r Record) { got = append(got, r) })
	if err != nil || done.State != StateDone {
		t.Fatalf("drain: done %+v, err %v", done, err)
	}
	inf := Float(math.Inf(1))
	want := []Record{
		{ID: 1, ArrivalNs: 8, EndNs: 9, SizeBits: inf, SentBits: 7, Completed: true, Outcome: "completed", PathLen: 4, Punts: 2},
		{ID: 2, ArrivalNs: 8, EndNs: 9, SizeBits: 7, SentBits: 7, Outcome: "dropped <x>", PathLen: 4},
		{ID: 3, Outcome: "running"},
		{ID: 4, ArrivalNs: 1000000, EndNs: 2001000000, SizeBits: inf, SentBits: 2e7, Completed: true, Outcome: "completed", PathLen: 4},
		{ID: 5, ArrivalNs: 50, EndNs: 55, SizeBits: 1e4, SentBits: 1e4, Completed: true, Outcome: "completed", PathLen: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

// TestClientBurstsKeepRecordsApart streams enough records to cross many
// read bursts and record chunks, in writes that tear frames at arbitrary
// offsets, interleaving a second session and a frame longer than the
// read buffer. Every Event.Record must keep its own value after the
// reader has moved on (they point into shared chunks), in order.
func TestClientBurstsKeepRecordsApart(t *testing.T) {
	const n = 5*recordSlab + 17
	var script strings.Builder
	for i := 1; i <= n; i++ {
		script.WriteString(recordLine(t, "s1", int64(i)))
		if i%100 == 0 {
			script.WriteString(recordLine(t, "other", int64(i)))
			fmt.Fprintf(&script, `{"v":"horse-wire/v1","event":"Progress","session":"s1","data":{"now_ns":%d,"events":%d}}`+"\n", i, i)
		}
	}
	long := strings.Repeat("x", readBufBytes+100)
	fmt.Fprintf(&script, `{"v":"horse-wire/v1","event":"Done","session":"s1","data":{"state":"failed","error":%q}}`+"\n", long)

	for _, chunk := range []int{0, 1000, 4099} {
		stream := fakeServer(t, "s1", []byte(script.String()), chunk)
		var recs []*Record
		progress := 0
		for {
			ev, err := stream.Recv()
			if err != nil {
				t.Fatalf("chunk %d: after %d records: %v", chunk, len(recs), err)
			}
			if ev.Kind == EventProgress {
				// Progress i follows record i: order holds across kinds.
				if progress += 100; ev.Progress.NowNs != int64(progress) || len(recs) != progress {
					t.Fatalf("chunk %d: progress %+v after %d records", chunk, ev.Progress, len(recs))
				}
			}
			if ev.Kind == EventRecord {
				recs = append(recs, ev.Record)
			}
			if ev.Kind == EventDone {
				if ev.Done.Error != long {
					t.Fatalf("chunk %d: long Done frame mangled (%d bytes)", chunk, len(ev.Done.Error))
				}
				break
			}
		}
		if _, err := stream.Recv(); err != io.EOF {
			t.Fatalf("chunk %d: Recv after Done: %v, want io.EOF", chunk, err)
		}
		if len(recs) != n {
			t.Fatalf("chunk %d: %d records, want %d", chunk, len(recs), n)
		}
		for i, r := range recs {
			if id := int64(i + 1); r.ID != id || r.ArrivalNs != id*10 || r.Outcome != "completed" {
				t.Fatalf("chunk %d: record %d is %+v", chunk, i, *r)
			}
		}
	}
}
