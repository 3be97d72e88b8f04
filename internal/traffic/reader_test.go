package traffic

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"horse/internal/simtime"
)

// drain pulls a reader to exhaustion, returning the demands and the
// terminal error (io.EOF on clean end).
func drain(r Reader) (Trace, error) {
	var tr Trace
	for {
		d, err := r.Next()
		if err != nil {
			return tr, err
		}
		tr = append(tr, d)
	}
}

func sampleTrace(n int) Trace {
	g := NewGenerator(7)
	return g.PoissonArrivals(PoissonConfig{
		Hosts:       hostIDs(8),
		Lambda:      5000,
		Horizon:     simtime.FromSeconds(float64(n) / 5000 * 2),
		Sizes:       Pareto{XMin: 1e4, Alpha: 1.3},
		TCPFraction: 0.5,
		CBRRateBps:  1e6,
		DstPorts:    []uint16{80, 443},
	})
}

func TestTraceReader(t *testing.T) {
	tr := sampleTrace(50)
	got, err := drain(TraceReader(tr))
	if err != io.EOF {
		t.Fatalf("terminal error = %v, want io.EOF", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("TraceReader sequence differs from the trace")
	}
	// A drained reader stays at EOF.
	if _, err := TraceReader(nil).Next(); err != io.EOF {
		t.Fatalf("empty TraceReader: %v, want io.EOF", err)
	}
}

func TestCSVReaderMatchesReadCSV(t *testing.T) {
	tr := sampleTrace(200)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	base, err := ReadCSV(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 2, 7, 0} {
		r, err := NewCSVReader(bytes.NewReader(data), window)
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		got, terr := drain(r)
		if terr != io.EOF {
			t.Fatalf("window %d: terminal error %v", window, terr)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("window %d: streamed sequence differs from ReadCSV", window)
		}
	}
}

func TestCSVReaderReordersWithinWindow(t *testing.T) {
	tr := sampleTrace(100)
	// Shuffle rows locally: each row moves at most 3 positions.
	shuffled := append(Trace(nil), tr...)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i+3 < len(shuffled); i += 4 {
		j := i + rng.Intn(4)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	var buf bytes.Buffer
	if err := shuffled.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	base, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewCSVReader(bytes.NewReader(buf.Bytes()), 8)
	if err != nil {
		t.Fatal(err)
	}
	got, terr := drain(r)
	if terr != io.EOF {
		t.Fatalf("terminal error %v", terr)
	}
	want := append(Trace(nil), base...)
	want.Sort()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("windowed reader did not stable-sort a locally shuffled trace")
	}
}

func TestCSVReaderRejectsBeyondWindow(t *testing.T) {
	tr := sampleTrace(100)
	// Move the earliest row to the end: displaced far beyond any small
	// window.
	moved := append(append(Trace(nil), tr[1:]...), tr[0])
	var buf bytes.Buffer
	if err := moved.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := NewCSVReader(bytes.NewReader(buf.Bytes()), 4)
	if err != nil {
		t.Fatal(err)
	}
	_, terr := drain(r)
	if !errors.Is(terr, ErrTraceOrder) {
		t.Fatalf("terminal error %v, want ErrTraceOrder", terr)
	}
	// The error is sticky.
	if _, err := r.Next(); !errors.Is(err, ErrTraceOrder) {
		t.Fatalf("after error: %v, want sticky ErrTraceOrder", err)
	}
}

func TestCSVReaderHeaderErrors(t *testing.T) {
	if _, err := NewCSVReader(strings.NewReader(""), 0); err == nil {
		t.Error("empty input: want error")
	}
	if _, err := NewCSVReader(strings.NewReader("not,a,trace\n"), 0); err == nil {
		t.Error("bad header: want error")
	}
}

func TestCSVReaderBadRow(t *testing.T) {
	data := strings.Join(traceHeader[:], ",") + "\n0,0,1,17,1000,80,1e6,notafloat,0,false\n"
	r, err := NewCSVReader(strings.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, terr := drain(r); terr == io.EOF || terr == nil {
		t.Fatal("bad row: want parse error, got clean end")
	}
}

func TestPoissonReaderMatchesPoissonArrivals(t *testing.T) {
	cfgs := []PoissonConfig{
		{Hosts: hostIDs(4), Lambda: 1000, Horizon: simtime.FromSeconds(0.1),
			Sizes: FixedSize(1e5), TCPFraction: 1},
		{Hosts: hostIDs(16), Lambda: 300, Horizon: simtime.FromSeconds(0.5),
			Sizes: Pareto{XMin: 1e4, Alpha: 1.5}, TCPFraction: 0.3,
			CBRRateBps: 2e6, DstPorts: []uint16{80, 443, 8080}},
	}
	for ci, cfg := range cfgs {
		for seed := int64(1); seed <= 3; seed++ {
			want := NewGenerator(seed).PoissonArrivals(cfg)
			got, terr := drain(NewPoissonReader(seed, cfg))
			if terr != io.EOF {
				t.Fatalf("cfg %d seed %d: terminal error %v", ci, seed, terr)
			}
			if len(got) == 0 {
				t.Fatalf("cfg %d seed %d: empty stream", ci, seed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %d seed %d: streamed arrivals differ from PoissonArrivals", ci, seed)
			}
		}
	}
	// Invalid config: empty stream, like PoissonArrivals' nil trace.
	if _, err := NewPoissonReader(1, PoissonConfig{}).Next(); err != io.EOF {
		t.Fatalf("invalid config: %v, want io.EOF", err)
	}
}

func TestMergeReaders(t *testing.T) {
	a := sampleTrace(40)
	var b Trace
	for i, d := range sampleTrace(40) {
		d.Start = d.Start.Add(simtime.Duration(i%3) * 100)
		b = append(b, d)
	}
	b.Sort()
	got, terr := drain(MergeReaders(TraceReader(a), TraceReader(b)))
	if terr != io.EOF {
		t.Fatalf("terminal error %v", terr)
	}
	if len(got) != len(a)+len(b) {
		t.Fatalf("merged %d demands, want %d", len(got), len(a)+len(b))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Start < got[i-1].Start {
			t.Fatalf("merged stream decreases at %d", i)
		}
	}
	// Ties break toward the earlier reader: merging a trace with itself
	// keeps pairs adjacent in reader order.
	dup, terr := drain(MergeReaders(TraceReader(a), TraceReader(a)))
	if terr != io.EOF {
		t.Fatal(terr)
	}
	for i := 0; i < len(a); i++ {
		if !reflect.DeepEqual(dup[2*i], a[i]) || !reflect.DeepEqual(dup[2*i+1], a[i]) {
			t.Fatalf("self-merge not pairwise at %d", i)
		}
	}
	if _, err := MergeReaders().Next(); err != io.EOF {
		t.Fatalf("empty merge: %v, want io.EOF", err)
	}
}

// TestIngestOrderGuard: the engines' shared reader end stops at EOF with
// no error, and at the first demand that starts before its predecessor
// with an error wrapping ErrTraceOrder that stays put.
func TestIngestOrderGuard(t *testing.T) {
	at := func(ms int) Demand { return Demand{Start: simtime.Time(ms) * simtime.Time(simtime.Millisecond)} }
	in := NewIngest("eng", TraceReader(Trace{at(1), at(1), at(2)}))
	for i := 0; i < 3; i++ {
		if _, ok := in.Next(); !ok {
			t.Fatalf("demand %d: stream ended early (%v)", i, in.Err())
		}
	}
	if _, ok := in.Next(); ok || in.Err() != nil {
		t.Fatalf("at EOF: ok=%v err=%v, want false, nil", ok, in.Err())
	}

	in = NewIngest("eng", TraceReader(Trace{at(2), at(1), at(3)}))
	in.Next()
	if _, ok := in.Next(); ok {
		t.Fatal("a backwards demand was accepted")
	}
	if !errors.Is(in.Err(), ErrTraceOrder) || !strings.HasPrefix(in.Err().Error(), "eng: ") {
		t.Fatalf("err = %v, want an eng-prefixed ErrTraceOrder", in.Err())
	}
	if _, ok := in.Next(); ok {
		t.Fatal("stream resumed after an order error")
	}
	if (*Ingest)(nil).Err() != nil {
		t.Fatal("nil Ingest reports an error")
	}
}
