package traffic

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// callerReader is a Reader this package did not build: Ingest must call
// it one demand at a time, never ahead.
type callerReader struct {
	r     Reader
	pulls int
}

func (c *callerReader) Next() (Demand, error) {
	c.pulls++
	return c.r.Next()
}

// ingestAll drains an Ingest, returning its demands and its error.
func ingestAll(in *Ingest) (Trace, error) {
	var tr Trace
	for {
		d, ok := in.Next()
		if !ok {
			return tr, in.Err()
		}
		tr = append(tr, d)
	}
}

// producerGone reports whether every read-ahead producer has exited. A
// producer closes its done channel as its last act, so Close can return a
// moment before the goroutine is gone from the stack dump.
func producerGone() bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; {
		n := runtime.Stack(buf, true)
		if !bytes.Contains(buf[:n], []byte("traffic.produce(")) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

func csvOf(t *testing.T, tr Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestIngestReadsOnlyLibraryReadersAhead(t *testing.T) {
	csv, err := NewCSVReader(strings.NewReader(csvOf(t, sampleTrace(10))), 0)
	if err != nil {
		t.Fatal(err)
	}
	lib := TraceReader(sampleTrace(10))
	caller := &callerReader{r: TraceReader(sampleTrace(10))}
	for _, c := range []struct {
		name string
		r    Reader
		want bool
	}{
		{"slice", lib, true},
		{"csv", csv, true},
		{"poisson", NewPoissonReader(1, PoissonConfig{}), true},
		{"merge of library readers", MergeReaders(lib, csv), true},
		{"caller", caller, false},
		{"merge with a caller reader", MergeReaders(lib, caller), false},
	} {
		if got := canReadAhead(c.r); got != c.want {
			t.Errorf("%s: read ahead = %v, want %v", c.name, got, c.want)
		}
	}

	// A caller's reader is pulled once per demand the engine takes.
	caller = &callerReader{r: TraceReader(sampleTrace(10))}
	in := NewIngest("eng", caller)
	for i := 1; i <= 3; i++ {
		in.Next()
		if caller.pulls != i {
			t.Fatalf("after %d demands the reader was pulled %d times", i, caller.pulls)
		}
	}
	in.Close()
}

// TestIngestReadAheadMatchesSource: read ahead, every library reader
// yields its exact sequence and a clean end, across batch boundaries.
func TestIngestReadAheadMatchesSource(t *testing.T) {
	long := sampleTrace(3000)
	for _, n := range []int{0, 1, aheadBatch - 1, aheadBatch, aheadBatch + 1, len(long)} {
		tr := long[:n]
		text := csvOf(t, tr)
		want, err := ReadCSV(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		csv, err := NewCSVReader(strings.NewReader(text), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ingestAll(NewIngest("eng", csv))
		if err != nil || len(got) != n || (n > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("csv of %d demands: got %d, err %v", n, len(got), err)
		}
		got, err = ingestAll(NewIngest("eng", TraceReader(tr)))
		if err != nil || len(got) != n || (n > 0 && !reflect.DeepEqual(got, tr)) {
			t.Fatalf("slice of %d demands: got %d, err %v", n, len(got), err)
		}
	}
	cfg := PoissonConfig{Hosts: hostIDs(8), Lambda: 20000, Horizon: 100_000_000, Sizes: FixedSize(1e4), CBRRateBps: 1e6}
	want, _ := drain(MergeReaders(TraceReader(long), NewPoissonReader(3, cfg)))
	got, err := ingestAll(NewIngest("eng", MergeReaders(TraceReader(long), NewPoissonReader(3, cfg))))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("merge: %d demands (err %v), want %d", len(got), err, len(want))
	}
	if !producerGone() {
		t.Fatal("a producer outlived its stream")
	}
}

// TestIngestReadAheadErrorPosition: a reader error read ahead reaches the
// engine after exactly the demands that precede it, as it does read
// lazily. The CSV reader fills its reorder window before it emits, so a
// bad k-th row follows max(0, k-DefaultTraceWindow) demands.
func TestIngestReadAheadErrorPosition(t *testing.T) {
	tr := sampleTrace(3000)
	rows := strings.SplitAfter(csvOf(t, tr), "\n") // rows[0] is the header
	w := DefaultTraceWindow
	for _, k := range []int{1, w + 1, w + 2, w + aheadBatch + 1, w + 4*aheadBatch + 3, len(tr)} {
		bad := append(append([]string(nil), rows[:k]...), "0,0,1,17,1000,80,1e6,notafloat,0,false\n")
		bad = append(bad, rows[k:]...)
		open := func() Reader {
			r, err := NewCSVReader(strings.NewReader(strings.Join(bad, "")), 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		want, werr := ingestAll(NewIngest("eng", &callerReader{r: open()}))
		got, gerr := ingestAll(NewIngest("eng", open()))
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("bad row %d: error %v, lazily %v", k, gerr, werr)
		}
		if len(got) != max(0, k-w) || !reflect.DeepEqual(got, want) {
			t.Fatalf("bad row %d: %d demands before the error, lazily %d", k, len(got), len(want))
		}
	}
}

// TestIngestCloseStopsProducer: Close mid-stream stops the producer and
// ends the stream cleanly; it is idempotent, and safe before any Next and
// on a nil Ingest.
func TestIngestCloseStopsProducer(t *testing.T) {
	in := NewIngest("eng", TraceReader(sampleTrace(5000)))
	if _, ok := in.Next(); !ok {
		t.Fatal("stream ended at once")
	}
	in.Close()
	if !producerGone() {
		t.Fatal("producer still running after Close")
	}
	if _, ok := in.Next(); ok || in.Err() != nil {
		t.Fatalf("after Close: ok=%v err=%v, want false, nil", ok, in.Err())
	}
	in.Close()
	NewIngest("eng", TraceReader(sampleTrace(5))).Close()
	(*Ingest)(nil).Close()
}
