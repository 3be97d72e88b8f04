package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"horse"
	"horse/internal/openflow"
)

// span is one timed interval at a layer boundary. Spans are recorded
// only from this package, around calls into the simulator's exported
// functions; nothing inside the simulator is instrumented. A span holds
// no pointers, so a million of them cost the collector nothing to scan.
type span struct {
	id     int32
	parent int32 // -1 for a root
	name   int32 // index into tracer.names
	run    int32 // traced iteration the span belongs to
	start  int64 // ns since tracer start
	end    int64
}

// progressPoint is one WithProgressEvery report: events dispatched by a
// virtual-time instant, stamped with host time.
type progressPoint struct {
	run    int32
	virtNs int64
	events uint64
	hostNs int64
}

// tracer keeps spans in memory until the process ends. It is used from
// one goroutine only: serial engines run every callback on the goroutine
// that called Run, and the horsed client loop is a single goroutine.
type tracer struct {
	t0       time.Time
	names    []string
	nameIdx  map[string]int32
	spans    []span
	stack    []int32
	run      int32
	progress []progressPoint
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nameIdx: map[string]int32{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) nameID(name string) int32 {
	id, ok := t.nameIdx[name]
	if !ok {
		id = int32(len(t.names))
		t.names = append(t.names, name)
		t.nameIdx[name] = id
	}
	return id
}

// begin opens a span under the innermost open one. A nil tracer records
// nothing, so setup code calls begin/end unconditionally; the per-event
// wrappers below are simply not installed on untraced runs.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	return t.beginID(t.nameID(name))
}

func (t *tracer) beginID(name int32) int32 {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, run: t.run, start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// spanStat aggregates every span of one name.
type spanStat struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	// SelfS is total minus the part covered by direct child spans.
	SelfS float64 `json:"self_s"`
}

// childTime is, per span, the time its direct children cover.
func (t *tracer) childTime() []int64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	return child
}

// aggregate sums spans of one traced iteration by name.
func (t *tracer) aggregate(run int32) map[string]spanStat {
	child := t.childTime()
	out := map[string]spanStat{}
	for _, s := range t.spans {
		if s.run != run {
			continue
		}
		st := out[t.names[s.name]]
		st.Count++
		st.TotalS += float64(s.end-s.start) / 1e9
		st.SelfS += float64(s.end-s.start-child[s.id]) / 1e9
		out[t.names[s.name]] = st
	}
	return out
}

// check reports the first span that breaks nesting: a child outside its
// parent's interval, or children covering more than their parent.
func (t *tracer) check() error {
	child := t.childTime()
	for _, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.id, t.names[s.name])
		}
		if s.parent < 0 {
			continue
		}
		p := t.spans[s.parent]
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) not inside parent %d (%s)", s.id, t.names[s.name], p.id, t.names[p.name])
		}
	}
	for _, s := range t.spans {
		if child[s.id] > s.end-s.start {
			return fmt.Errorf("span %d (%s) has negative self time", s.id, t.names[s.name])
		}
	}
	return nil
}

// traceFile is the on-disk form: spans as compact rows, names by index.
type traceFile struct {
	Schema   string     `json:"schema"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Names    []string   `json:"names"`
	SpanCols []string   `json:"span_columns"`
	Spans    [][6]int64 `json:"spans"`
	ProgCols []string   `json:"progress_columns"`
	Progress [][4]int64 `json:"progress"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	tf := traceFile{
		Schema: "horse-benchmark-trace/v1", Workload: workload, Seed: seed, Names: t.names,
		SpanCols: []string{"id", "parent", "name", "run_id", "start_ns", "end_ns"},
		ProgCols: []string{"run_id", "virtual_ns", "events", "host_ns"},
		Spans:    make([][6]int64, len(t.spans)),
		Progress: make([][4]int64, len(t.progress)),
	}
	for i, s := range t.spans {
		tf.Spans[i] = [6]int64{int64(s.id), int64(s.parent), int64(s.name), int64(s.run), s.start, s.end}
	}
	for i, p := range t.progress {
		tf.Progress[i] = [4]int64{int64(p.run), p.virtNs, int64(p.events), p.hostNs}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedReader times every pull the engine makes on its trace reader.
type tracedReader struct {
	r    horse.TraceReader
	t    *tracer
	name int32
}

func (r *tracedReader) Next() (horse.Demand, error) {
	id := r.t.beginID(r.name)
	d, err := r.r.Next()
	r.t.end(id)
	return d, err
}

// tracedController times every control-plane callback. It hides the
// Forker capability, so only serial runs may wear it.
type tracedController struct {
	c             horse.Controller
	t             *tracer
	start, handle int32
}

func (c *tracedController) Start(ctx *horse.Context) {
	id := c.t.beginID(c.start)
	c.c.Start(ctx)
	c.t.end(id)
}

func (c *tracedController) Handle(ctx *horse.Context, msg openflow.Message) {
	id := c.t.beginID(c.handle)
	c.c.Handle(ctx, msg)
	c.t.end(id)
}

// countingConn counts the bytes a wire.Client moves. The client reads on
// its own goroutine, hence the atomics.
type countingConn struct {
	net.Conn
	rd, wr atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rd.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.wr.Add(int64(n))
	return n, err
}
