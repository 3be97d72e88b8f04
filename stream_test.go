package horse_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"horse"
)

// streamVariant selects the bounded-memory paths under test at the façade
// level: output streaming (WithRecordSink), input streaming
// (WithTraceReader), or both, against the retained baseline. mixed splits
// the input instead: even-indexed demands through Load, odd-indexed ones
// through WithTraceReader.
type streamVariant struct {
	name   string
	sink   bool
	reader bool
	mixed  bool
}

var streamVariants = []streamVariant{
	{name: "retained"},
	{name: "sink", sink: true},
	{name: "reader", reader: true},
	{name: "sink+reader", sink: true, reader: true},
}

// streamCase is one cell of the equivalence matrix.
type streamCase struct {
	fidelity horse.Fidelity
	shards   int
}

// streamMatrix is the battery's fidelity × shards coverage. WithShards
// runs the serial engine at any count, so the shard dimension pins that
// the option stays a no-op on every streaming path; the Hybrid engine
// rejects it, so its shard dimension is the plain run.
func streamMatrix() []streamCase {
	var cases []streamCase
	for _, shards := range []int{1, 4} {
		cases = append(cases, streamCase{horse.Flow, shards}, streamCase{horse.Packet, shards})
	}
	return append(cases, streamCase{horse.Hybrid, 0})
}

// String names the cell; the "/wheel" suffix keeps the names the cells
// had when the battery also ran the heap.
func (c streamCase) String() string {
	return fmt.Sprintf("%v/shards=%d/wheel", c.fidelity, c.shards)
}

// runStream executes one scenario cell and returns the record sequence
// (from the sink when streaming, the collector otherwise) plus the
// counter snapshot.
func runStream(t *testing.T, c streamCase, v streamVariant,
	topo *horse.Topology, tr horse.Trace, tl *horse.Scenario,
	until horse.Time) ([]horse.FlowRecord, horse.Counters) {
	t.Helper()
	opts := []horse.Option{
		horse.WithFidelity(c.fidelity),
		horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
		horse.WithMiss(horse.MissController),
	}
	if c.shards > 0 {
		opts = append(opts, horse.WithShards(c.shards))
	}
	if c.fidelity == horse.Hybrid {
		opts = append(opts, horse.WithPacketFraction(0.5))
	}
	if tl != nil {
		opts = append(opts, horse.WithScenario(tl))
	}
	var streamed []horse.FlowRecord
	if v.sink {
		opts = append(opts, horse.WithRecordSink(func(r horse.FlowRecord) {
			streamed = append(streamed, r)
		}))
	}
	load := tr
	switch {
	case v.reader:
		opts = append(opts, horse.WithTraceReader(horse.NewTraceReader(tr)))
		load = nil
	case v.mixed:
		var odd horse.Trace
		load = nil
		for i, d := range tr {
			if i%2 == 0 {
				load = append(load, d)
			} else {
				odd = append(odd, d)
			}
		}
		opts = append(opts, horse.WithTraceReader(horse.NewTraceReader(odd)))
	}
	eng, err := horse.New(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if load != nil {
		eng.Load(load)
	}
	col, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}
	if v.sink {
		if n := len(col.Flows()); n != 0 {
			t.Fatalf("%s/%s: sink mode retained %d records", c, v.name, n)
		}
		return streamed, col.Counters()
	}
	return col.Flows(), col.Counters()
}

// diffStream compares a variant against the retained baseline of the same
// cell: record sequences byte-identical, counters equal. EventsRun is
// excluded for Hybrid reader variants: a reader cannot see past the
// demands tied with the one it pulled, so a packet-level demand is
// ingested at the flow engine's arrival position and costs one ingest
// dispatch more than Load's.
func diffStream(t *testing.T, c streamCase, label string, v streamVariant,
	wantR, gotR []horse.FlowRecord, wantC, gotC horse.Counters) {
	t.Helper()
	if !reflect.DeepEqual(wantR, gotR) {
		t.Errorf("%s: records diverged (%d retained vs %d %s)", label, len(wantR), len(gotR), v.name)
		for i := range wantR {
			if i < len(gotR) && wantR[i] != gotR[i] {
				t.Errorf("%s: first divergence at record %d:\nwant %+v\n got %+v",
					label, i, wantR[i], gotR[i])
				break
			}
		}
		return
	}
	if v.reader && c.fidelity == horse.Hybrid {
		wantC.EventsRun, gotC.EventsRun = 0, 0
	}
	if wantC != gotC {
		t.Errorf("%s: counters diverged:\nwant %+v\n got %+v", label, wantC, gotC)
	}
}

// TestStreamEquivalenceBattery is the cross-path equivalence contract of
// the bounded-memory paths: on the golden fat-tree workload, every
// streaming variant (record sink, trace reader, both) reproduces the
// retained run byte-for-byte at fidelity {Flow, Packet, Hybrid} × shards
// {1, 4}. A half-Load, half-reader input
// numbers records differently from the baseline, so its sink run is held
// to its own retained run. CI runs this battery under -race.
func TestStreamEquivalenceBattery(t *testing.T) {
	topo, tr := fatTreeWorkload()
	until := horse.Time(2 * horse.Second)
	for _, c := range streamMatrix() {
		t.Run(c.String(), func(t *testing.T) {
			want, wantC := runStream(t, c, streamVariants[0], topo, tr, nil, until)
			if len(want) == 0 {
				t.Fatal("retained baseline produced no records")
			}
			for _, v := range streamVariants[1:] {
				got, gotC := runStream(t, c, v, topo, tr, nil, until)
				diffStream(t, c, c.String()+"/"+v.name, v, want, got, wantC, gotC)
			}
			mixed := streamVariant{name: "load+reader", mixed: true}
			want, wantC = runStream(t, c, mixed, topo, tr, nil, until)
			if len(want) != len(tr) {
				t.Fatalf("load+reader retained %d records for %d demands", len(want), len(tr))
			}
			mixed.sink = true
			got, gotC := runStream(t, c, mixed, topo, tr, nil, until)
			diffStream(t, c, c.String()+"/load+reader+sink", mixed, want, got, wantC, gotC)
		})
	}
}

// TestStreamEquivalenceFailures reruns the battery's variants against the
// scripted-failure scenario (mid-run link outage with recovery) at one
// representative cell per fidelity: reconvergence churn — loss, reroutes,
// punts — must not perturb streamed/retained parity.
func TestStreamEquivalenceFailures(t *testing.T) {
	topo, tr, tl := failureWorkload()
	until := horse.Time(4 * horse.Second)
	cases := []streamCase{
		{horse.Flow, 1},
		{horse.Packet, 4},
		{horse.Hybrid, 0},
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) {
			want, wantC := runStream(t, c, streamVariants[0], topo, tr, tl, until)
			if len(want) == 0 {
				t.Fatal("retained baseline produced no records")
			}
			for _, v := range streamVariants[1:] {
				got, gotC := runStream(t, c, v, topo, tr, tl, until)
				diffStream(t, c, c.String()+"/"+v.name, v, want, got, wantC, gotC)
			}
		})
	}
}

// backwardsReader yields its demands as given, whatever their order.
type backwardsReader struct{ tr horse.Trace }

func (r *backwardsReader) Next() (horse.Demand, error) {
	if len(r.tr) == 0 {
		return horse.Demand{}, io.EOF
	}
	d := r.tr[0]
	r.tr = r.tr[1:]
	return d, nil
}

// TestTraceReaderOrderError: every fidelity stops ingesting at a demand
// that starts before its predecessor and returns ErrTraceOrder from Run.
func TestTraceReaderOrderError(t *testing.T) {
	topo, tr := fatTreeWorkload()
	bad := horse.Trace{tr[1], tr[0]}
	if bad[0].Start == bad[1].Start {
		t.Fatal("workload's first two demands start together")
	}
	for _, fid := range []horse.Fidelity{horse.Flow, horse.Packet, horse.Hybrid} {
		opts := []horse.Option{
			horse.WithFidelity(fid),
			horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
			horse.WithMiss(horse.MissController),
			horse.WithTraceReader(&backwardsReader{tr: bad}),
		}
		if fid == horse.Hybrid {
			opts = append(opts, horse.WithPacketFraction(0.5))
		}
		eng, err := horse.New(topo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background(), horse.Never); !errors.Is(err, horse.ErrTraceOrder) {
			t.Errorf("%v: Run error = %v, want ErrTraceOrder", fid, err)
		}
	}
}

// producerGone reports whether every trace read-ahead producer has
// exited. A producer closes the channel Close waits on as its last act,
// so the goroutine may linger in the stack dump for a moment after.
func producerGone() bool {
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; {
		n := runtime.Stack(buf, true)
		if !bytes.Contains(buf[:n], []byte("horse/internal/traffic.produce(")) {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadStopsWithRun: a library reader is read ahead on a
// goroutine of its own, and that goroutine never outlives Run — at every
// fidelity, whether the horizon ends the run before the stream does, ctx
// is cancelled mid-run, the reader fails, or the run panics.
func TestReadAheadStopsWithRun(t *testing.T) {
	topo := horse.LeafSpine(2, 2, 2, horse.Gig, horse.TenGig)
	long := horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 2000, Horizon: 100 * horse.Second,
		Sizes: horse.FixedSize(1e4), CBRRateBps: 1e7,
	}
	// A trace whose row DefaultTraceWindow+200 does not parse.
	var csv bytes.Buffer
	if err := horse.NewGenerator(5).PoissonArrivals(long)[:horse.DefaultTraceWindow+400].WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	rows := strings.SplitAfter(csv.String(), "\n")
	rows[horse.DefaultTraceWindow+200] = "0,0,1,17,1000,80,1e6,notafloat,0,false\n"
	badCSV := strings.Join(rows, "")

	cases := []struct {
		name   string
		reader func() horse.TraceReader
		until  horse.Time
		cancel bool // cancel ctx once virtual time passes 10 ms
		panic  bool // the record sink panics
	}{
		{name: "until", until: horse.Time(10 * horse.Millisecond)},
		{name: "cancel", until: horse.Never, cancel: true},
		{name: "error", until: horse.Never, reader: func() horse.TraceReader {
			r, err := horse.NewTraceCSVReader(strings.NewReader(badCSV), 0)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
		{name: "panic", until: horse.Never, panic: true},
	}
	for _, fid := range []horse.Fidelity{horse.Flow, horse.Packet, horse.Hybrid} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", fid, c.name), func(t *testing.T) {
				r := horse.NewPoissonReader(5, long)
				if c.reader != nil {
					r = c.reader()
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				opts := []horse.Option{
					horse.WithFidelity(fid),
					horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
					horse.WithMiss(horse.MissController),
					horse.WithTraceReader(r),
				}
				if fid == horse.Hybrid {
					opts = append(opts, horse.WithPacketFraction(0.5))
				}
				if c.cancel {
					opts = append(opts, horse.WithProgressEvery(horse.Millisecond, func(p horse.Progress) {
						if p.Now >= horse.Time(10*horse.Millisecond) {
							cancel()
						}
					}))
				}
				if c.panic {
					opts = append(opts, horse.WithRecordSink(func(horse.FlowRecord) { panic("sink failed") }))
				}
				eng, err := horse.New(topo, opts...)
				if err != nil {
					t.Fatal(err)
				}
				err = func() (err error) {
					defer func() {
						if p := recover(); p != nil {
							err = fmt.Errorf("panic: %v", p)
						}
					}()
					_, err = eng.Run(ctx, c.until)
					return err
				}()
				switch {
				case c.cancel && !errors.Is(err, context.Canceled),
					c.reader != nil && (err == nil || errors.Is(err, context.Canceled)),
					c.panic && (err == nil || !strings.HasPrefix(err.Error(), "panic: ")),
					!c.cancel && c.reader == nil && !c.panic && err != nil:
					t.Fatalf("Run error = %v", err)
				}
				if !producerGone() {
					t.Fatal("the read-ahead producer outlived Run")
				}
			})
		}
	}
}
