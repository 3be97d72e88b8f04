package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonRecordFrame is the codec's oracle: the Record event frame as
// encoding/json writes it, which is what the server emitted before the
// append encoder existed.
func jsonRecordFrame(t testing.TB, version, session string, r *Record) []byte {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(&Frame{V: version, Event: EventRecord, Session: session, Data: data})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameRecord is == on Records with NaN equal to itself and -0 distinct
// from +0.
func sameRecord(a, b Record) bool {
	bits := func(f Float) uint64 {
		if math.IsNaN(float64(f)) {
			return 1 // every NaN is "nan" on the wire
		}
		return math.Float64bits(float64(f))
	}
	if bits(a.SizeBits) != bits(b.SizeBits) || bits(a.SentBits) != bits(b.SentBits) {
		return false
	}
	a.SizeBits, a.SentBits, b.SizeBits, b.SentBits = 0, 0, 0, 0
	return a == b
}

// checkFastDecode holds the fast decoder to its contract on one line: it
// may decline, but what it accepts must be what encoding/json decodes.
// It reports whether the fast path accepted.
func checkFastDecode(t *testing.T, line []byte) bool {
	t.Helper()
	sentinel := Record{ID: -99, Outcome: "untouched"}
	fast := sentinel
	session, ok := decodeRecordFrame(line, recordFramePrefix(V1), &fast)
	if !ok {
		if fast != sentinel {
			t.Fatalf("declined %q but wrote %+v", line, fast)
		}
		return false
	}
	var f Frame
	if err := json.Unmarshal(line, &f); err != nil {
		t.Fatalf("fast path accepted %q, encoding/json rejects the frame: %v", line, err)
	}
	var slow Record
	if err := json.Unmarshal(f.Data, &slow); err != nil {
		t.Fatalf("fast path accepted %q, encoding/json rejects the record: %v", line, err)
	}
	if f.V != V1 || f.Event != EventRecord || f.Session != string(session) || f.ID != 0 {
		t.Fatalf("fast path accepted %q as session %q; envelope is %+v", line, session, f)
	}
	if !sameRecord(fast, slow) {
		t.Fatalf("decode of %q differs:\n fast %+v\n json %+v", line, fast, slow)
	}
	return true
}

// FuzzRecordFrameCodec is the differential test of the Record codec
// against encoding/json: the append encoder must equal json.Marshal byte
// for byte on any Record, and the scanner must either decline a line or
// decode it exactly as encoding/json does.
func FuzzRecordFrameCodec(f *testing.F) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "v1", "record-event.json"))
	if err != nil {
		f.Fatal(err)
	}
	negZero := math.Copysign(0, -1)
	f.Add(int64(3), int64(1000000), int64(2001000000), math.Inf(1), 2e7, true, "completed", 4, 0, "s1", fixture)
	f.Add(int64(math.MaxInt64), int64(math.MinInt64), int64(0), math.Inf(-1), math.NaN(), false, "dropped", math.MaxInt, math.MinInt, "s12", []byte(nil))
	f.Add(int64(-1), int64(1), int64(2), negZero, 1e21, false, `say "hi"`, 1, 2, `a\b`, []byte(`{"v":"horse-wire/v1"}`))
	f.Add(int64(0), int64(0), int64(0), 1e-7, 999999999999999868928.0, true, "<b>&amp;</b>", 0, 0, "s<1>", []byte("{}\n"))
	f.Add(int64(7), int64(8), int64(9), 1e-6, 0.1, true, "héllo\u2028", -3, 7, "sessão", []byte(`{"v":"horse-wire/v1","event":"Record","session":"s1","data":{"id":01}}`))
	f.Add(int64(7), int64(8), int64(9), 5e-324, math.MaxFloat64, true, "ctl\x01\x7f\xff", 3, 7, "", []byte(`{"v":"horse-wire/v1","event":"Record","session":"s1","data":{"id":1,"arrival_ns":2,"end_ns":3,"size_bits":1.,"sent_bits":.5,"completed":true,"outcome":"x","path_len":1,"punts":0}}`))
	f.Add(int64(1), int64(2), int64(3), 123456789012345678.0, 1234567.125, true, "completed", 2, 0, "s1", []byte(`{"v":"horse-wire/v1","event":"Record","session":"s1","data":{"id":1,"arrival_ns":2,"end_ns":3,"size_bits":"inf","sent_bits":1e999,"completed":true,"outcome":"x","path_len":1,"punts":9223372036854775808}}`))

	f.Fuzz(func(t *testing.T, id, arrival, end int64, size, sent float64, completed bool,
		outcome string, pathLen, punts int, session string, line []byte) {
		rec := Record{ID: id, ArrivalNs: arrival, EndNs: end, SizeBits: Float(size), SentBits: Float(sent),
			Completed: completed, Outcome: outcome, PathLen: pathLen, Punts: punts}
		want := jsonRecordFrame(t, V1, session, &rec)
		got := AppendRecordFrame([]byte("kept"), V1, session, &rec)
		if !bytes.HasPrefix(got, []byte("kept")) || !bytes.Equal(got[4:], want) {
			t.Fatalf("encode of %+v (session %q):\n got  %s\n want %s", rec, session, got, want)
		}
		// What the server emits must come back out of the fast path
		// whenever no string needed escaping, with or without the newline.
		accepted := checkFastDecode(t, want)
		if plain := session != "" && isPlain(session) && isPlain(outcome); accepted != plain {
			t.Fatalf("fast path accepted=%v, want %v, for canonical frame %s", accepted, plain, want)
		}
		checkFastDecode(t, append(want, '\n'))
		checkFastDecode(t, line)
		// Near misses: the canonical frame with one byte overwritten.
		if len(line) >= 2 {
			near := append([]byte(nil), want...)
			near[int(line[0])*len(near)/256] = line[1]
			checkFastDecode(t, near)
		}
	})
}

// TestRecordFrameNoVersion covers the omitempty arms of the envelope: a
// frame without a version or session still matches encoding/json.
func TestRecordFrameNoVersion(t *testing.T) {
	rec := Record{ID: 1, Outcome: "completed"}
	for _, c := range []struct{ version, session string }{{"", "s1"}, {V1, ""}, {"", ""}} {
		want := jsonRecordFrame(t, c.version, c.session, &rec)
		if got := AppendRecordFrame(nil, c.version, c.session, &rec); !bytes.Equal(got, want) {
			t.Errorf("version %q session %q:\n got  %s\n want %s", c.version, c.session, got, want)
		}
	}
}

// TestFastDecodeDeclines lists deviations from the canonical form that
// encoding/json accepts: the fast path must hand every one of them over.
func TestFastDecodeDeclines(t *testing.T) {
	rec := Record{ID: 3, ArrivalNs: 1, EndNs: 2, SizeBits: 5, SentBits: 5, Completed: true, Outcome: "completed", PathLen: 4}
	canon := string(jsonRecordFrame(t, V1, "s1", &rec))
	if !checkFastDecode(t, []byte(canon)) {
		t.Fatalf("canonical frame declined: %s", canon)
	}
	for name, line := range map[string]string{
		"leading space":    " " + canon,
		"space after ':'":  strings.Replace(canon, `"id":3`, `"id": 3`, 1),
		"crlf":             canon + "\r\n",
		"trailing garbage": canon + "x",
		"fields reordered": strings.Replace(canon, `"id":3,"arrival_ns":1`, `"arrival_ns":1,"id":3`, 1),
		"envelope reorder": strings.Replace(canon, `"event":"Record","session":"s1"`, `"session":"s1","event":"Record"`, 1),
		"escaped outcome":  strings.Replace(canon, `"completed","path`, `"\u0063ompleted","path`, 1),
		"unknown field":    strings.Replace(canon, `"punts":0`, `"punts":0,"extra":1`, 1),
		"missing punts":    strings.Replace(canon, `,"punts":0`, ``, 1),
		"other version":    strings.Replace(canon, V1, "horse-wire/v2", 1),
		"int as float":     strings.Replace(canon, `"id":3`, `"id":3.0`, 1),
		"bare inf string":  strings.Replace(canon, `"size_bits":5`, `"size_bits":"inf"`, 1),
		"another event":    strings.Replace(canon, `"event":"Record"`, `"event":"Progress"`, 1),
		"request id":       strings.Replace(canon, `{"v"`, `{"id":4,"v"`, 1),
		"truncated":        canon[:len(canon)-1],
		"empty":            "",
	} {
		if checkFastDecode(t, []byte(line)) {
			t.Errorf("%s: fast path accepted %s", name, line)
		}
	}
}

// TestV1EventFixturesBothPaths pushes every v1 event fixture through
// both decode paths: the scanner must agree with encoding/json on the
// ones it accepts, and the Record fixture — written before "punts"
// existed, so not canonical — must reach the same Record either way once
// re-encoded in today's canonical form.
func TestV1EventFixturesBothPaths(t *testing.T) {
	names, err := filepath.Glob(filepath.Join("testdata", "v1", "*-event*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no event fixtures (%v)", err)
	}
	for _, name := range names {
		line, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		checkFastDecode(t, line)

		var f Frame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.Event != EventRecord {
			continue
		}
		var rec Record
		if err := json.Unmarshal(f.Data, &rec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon := AppendRecordFrame(nil, f.V, f.Session, &rec)
		var again Record
		session, ok := decodeRecordFrame(canon, recordFramePrefix(V1), &again)
		if !ok || string(session) != f.Session || !sameRecord(again, rec) {
			t.Fatalf("%s: re-encoded %s decodes to %+v (session %q, ok %v), want %+v", name, canon, again, session, ok, rec)
		}
	}
}

var benchRecord = Record{ID: 123456, ArrivalNs: 1_234_567_890, EndNs: 1_235_067_890,
	SizeBits: 10000, SentBits: 10000, Completed: true, Outcome: "completed", PathLen: 4}

func BenchmarkRecordFrameEncode(b *testing.B) {
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendRecordFrame(buf[:0], V1, "s1", &benchRecord)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkRecordFrameDecode(b *testing.B) {
	line := append(AppendRecordFrame(nil, V1, "s1", &benchRecord), '\n')
	prefix := recordFramePrefix(V1)
	var rec Record
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := decodeRecordFrame(line, prefix, &rec); !ok {
			b.Fatal("canonical frame declined")
		}
	}
}

// TestRecordFrameEncodeAllocs pins the encoder's zero-allocation
// contract (the benchmark reports it; this fails on it).
func TestRecordFrameEncodeAllocs(t *testing.T) {
	buf := make([]byte, 0, 512)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendRecordFrame(buf[:0], V1, "s1", &benchRecord)
	}); n != 0 {
		t.Fatalf("AppendRecordFrame allocates %v times per record, want 0", n)
	}
}

// TestRecordFrameDecodeAllocs pins the decoder's zero-allocation contract
// for the outcomes the engines emit: the v1 fixture's record, framed as
// the server writes it today (the fixture predates the punts field), and
// the same record under each of the six engine outcomes decode into a
// reused Record without allocating. Any other outcome is copied out of
// the line, never aliased.
func TestRecordFrameDecodeAllocs(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "v1", "record-event.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := json.Unmarshal(fixture, &f); err != nil {
		t.Fatal(err)
	}
	var want Record
	if err := json.Unmarshal(f.Data, &want); err != nil {
		t.Fatal(err)
	}
	prefix := recordFramePrefix(V1)
	var rec Record
	for _, outcome := range []string{want.Outcome, "completed", "dropped", "looped", "expired-waiting", "running", "waiting"} {
		r := want
		r.Outcome = outcome
		line := append(AppendRecordFrame(nil, V1, f.Session, &r), '\n')
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := decodeRecordFrame(line, prefix, &rec); !ok {
				t.Fatalf("canonical frame %s declined", line)
			}
		}); n != 0 {
			t.Errorf("outcome %q: decode allocates %v times per record, want 0", outcome, n)
		}
		if rec != r {
			t.Fatalf("decoded %+v, want %+v", rec, r)
		}
	}

	r := want
	r.Outcome = "custom"
	line := AppendRecordFrame(nil, V1, f.Session, &r)
	if _, ok := decodeRecordFrame(line, prefix, &rec); !ok || rec.Outcome != "custom" {
		t.Fatalf("decoded outcome %q (ok=%v), want custom", rec.Outcome, ok)
	}
	copy(line[bytes.Index(line, []byte("custom")):], "XXXXXX")
	if rec.Outcome != "custom" {
		t.Fatalf("decoded outcome aliases the line: now %q", rec.Outcome)
	}
}
