package traffic

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"

	"horse/internal/simtime"
)

// Reader streams a demand trace one flow at a time, in nondecreasing
// Start order, so engines can ingest workloads of any length without
// materializing them. Next returns io.EOF after the last demand; any
// other error ends the stream (engines surface it from Run). A Reader is
// single-consumer and not safe for concurrent use.
type Reader interface {
	Next() (Demand, error)
}

// ErrTraceOrder reports a demand that cannot be emitted in nondecreasing
// Start order — for the windowed CSV reader, a row displaced further than
// the lookahead window can repair.
var ErrTraceOrder = errors.New("trace out of start-time order")

// DefaultTraceWindow is the lookahead window NewCSVReader uses when the
// caller passes window <= 0: large enough to absorb the local jitter of
// logged traces, small enough to keep ingestion memory bounded.
const DefaultTraceWindow = 1024

// TraceReader adapts an in-memory trace to the streaming interface. The
// trace must already be sorted (Trace.Sort); the slice is not copied.
func TraceReader(tr Trace) Reader { return &sliceReader{tr: tr} }

type sliceReader struct {
	tr Trace
	i  int
}

func (r *sliceReader) Next() (Demand, error) {
	if r.i >= len(r.tr) {
		return Demand{}, io.EOF
	}
	d := r.tr[r.i]
	r.i++
	return d, nil
}

// windowItem pairs a parsed demand with its input sequence number.
type windowItem struct {
	d   Demand
	seq int
}

// windowReader re-sorts a nearly-sorted source through a bounded
// lookahead window and enforces the Reader ordering contract. The window
// is a ring kept sorted on (Start, input sequence): a row no earlier than
// the newest one — every row of a sorted input — is appended at the back
// in O(1), a displaced row is binary-inserted behind every row with the
// same Start (so equal-Start rows keep input order and an already-sorted
// input streams through byte-identically to ReadCSV), and the front is
// always the minimum.
type windowReader struct {
	pull    func() (Demand, error)
	window  int
	ring    []windowItem // len is a power of two
	head, n int
	seq     int
	last    simtime.Time
	started bool
	err     error
	done    bool // source exhausted; drain the window
}

func newWindowReader(pull func() (Demand, error), window int) *windowReader {
	if window <= 0 {
		window = DefaultTraceWindow
	}
	return &windowReader{pull: pull, window: window}
}

// at returns the i-th oldest item of the window.
func (r *windowReader) at(i int) *windowItem { return &r.ring[(r.head+i)&(len(r.ring)-1)] }

// insert adds one item at its sorted position.
func (r *windowReader) insert(it windowItem) {
	if r.n == len(r.ring) {
		grown := make([]windowItem, max(16, 2*len(r.ring)))
		for i := 0; i < r.n; i++ {
			grown[i] = *r.at(i)
		}
		r.ring, r.head = grown, 0
	}
	i := r.n
	if i > 0 && it.d.Start < r.at(i-1).d.Start {
		i = sort.Search(r.n, func(j int) bool { return r.at(j).d.Start > it.d.Start })
		for j := r.n; j > i; j-- {
			*r.at(j) = *r.at(j - 1)
		}
	}
	*r.at(i) = it
	r.n++
}

func (r *windowReader) Next() (Demand, error) {
	if r.err != nil {
		return Demand{}, r.err
	}
	for !r.done && r.n < r.window {
		d, err := r.pull()
		if err == io.EOF {
			r.done = true
			break
		}
		if err != nil {
			r.err = err
			return Demand{}, err
		}
		r.insert(windowItem{d, r.seq})
		r.seq++
	}
	if r.n == 0 {
		r.err = io.EOF
		return Demand{}, io.EOF
	}
	min := *r.at(0)
	*r.at(0) = windowItem{}
	r.head = (r.head + 1) & (len(r.ring) - 1)
	r.n--
	if r.started && min.d.Start < r.last {
		r.err = fmt.Errorf("traffic: row %d starts at %v, after later rows already emitted (lookahead window %d): %w",
			min.seq+1, min.d.Start, r.window, ErrTraceOrder)
		return Demand{}, r.err
	}
	r.started = true
	r.last = min.d.Start
	return min.d, nil
}

// NewCSVReader streams a trace written by WriteCSV, holding at most
// window parsed rows (DefaultTraceWindow when window <= 0) in a lookahead
// buffer that re-sorts rows displaced by less than the window. Inputs in
// nondecreasing Start order stream through in exactly ReadCSV's row
// order; a row out of order by more than the window fails with
// ErrTraceOrder. The header is validated eagerly. It accepts exactly the
// inputs ReadCSV accepts and parses them to the same demands. An Ingest
// reads it ahead on a helper goroutine, and r with it.
func NewCSVReader(r io.Reader, window int) (Reader, error) {
	sc := &csvScanner{br: bufio.NewReader(r)}
	hdr, err := sc.header()
	if err == io.EOF {
		return nil, fmt.Errorf("traffic: empty trace file")
	}
	if err != nil {
		return nil, fmt.Errorf("traffic: reading trace: %w", err)
	}
	if len(hdr) != len(traceHeader) || hdr[0] != traceHeader[0] {
		return nil, fmt.Errorf("traffic: unrecognized trace header %v", hdr)
	}
	return newWindowReader(sc.next, window), nil
}

// csvScanner reads trace records. Canonical lines — no quote, no CR, not
// blank, exactly one field per trace column — are split in place and
// parsed straight from the read buffer, with no per-row allocation; on
// such a line encoding/csv would return the very same fields. At the
// first other line the scanner hands that line and the rest of the input
// to encoding/csv, for good.
type csvScanner struct {
	br     *bufio.Reader
	cr     *csv.Reader // set once the scanner has fallen back
	line   int         // records read, header included
	fields [len(traceHeader)][]byte
}

// header reads the header record.
func (sc *csvScanner) header() ([]string, error) {
	b, err := sc.br.ReadSlice('\n')
	if err == io.EOF && len(b) == 0 {
		return nil, io.EOF
	}
	if (err == nil || err == io.EOF) && sc.split(b) {
		sc.line++
		hdr := make([]string, len(sc.fields))
		for i, f := range sc.fields {
			hdr[i] = string(f)
		}
		return hdr, nil
	}
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return nil, err
	}
	// encoding/csv sets the field count from the header, as ReadCSV does.
	sc.fallBack(b, 0)
	hdr, err := sc.cr.Read()
	sc.line++
	return hdr, err
}

// next parses the next record.
func (sc *csvScanner) next() (Demand, error) {
	if sc.cr == nil {
		b, err := sc.br.ReadSlice('\n')
		if err == io.EOF && len(b) == 0 {
			return Demand{}, io.EOF
		}
		if (err == nil || err == io.EOF) && sc.split(b) {
			sc.line++
			return parseTraceRow(sc.fields[:], sc.line)
		}
		if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
			return Demand{}, fmt.Errorf("traffic: reading trace: %w", err)
		}
		sc.fallBack(b, len(traceHeader))
	}
	row, err := sc.cr.Read()
	if err == io.EOF {
		return Demand{}, io.EOF
	}
	if err != nil {
		return Demand{}, fmt.Errorf("traffic: reading trace: %w", err)
	}
	sc.line++
	return parseTraceRow(row, sc.line)
}

// split splits a canonical line into sc.fields and reports whether it was
// one.
func (sc *csvScanner) split(b []byte) bool {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if len(b) == 0 {
		return false
	}
	f, start := 0, 0
	for i, c := range b {
		switch c {
		case '"', '\r':
			return false
		case ',':
			if f == len(sc.fields)-1 {
				return false
			}
			sc.fields[f] = b[start:i]
			f, start = f+1, i+1
		}
	}
	if f != len(sc.fields)-1 {
		return false
	}
	sc.fields[f] = b[start:]
	return true
}

// fallBack switches to encoding/csv, starting at pending (the unconsumed
// line, which aliases the read buffer). fields is the record width it
// enforces (0: set by the first record). The lines already scanned are
// replayed as blank lines, which encoding/csv skips but counts, so its
// errors cite lines of the whole input.
func (sc *csvScanner) fallBack(pending []byte, fields int) {
	done := blankLines(sc.line)
	rest := append([]byte(nil), pending...)
	sc.cr = csv.NewReader(io.MultiReader(&done, bytes.NewReader(rest), sc.br))
	sc.cr.FieldsPerRecord = fields
}

// blankLines reads as that many newlines.
type blankLines int

func (n *blankLines) Read(p []byte) (int, error) {
	if *n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), int(*n))
	for i := range p[:k] {
		p[i] = '\n'
	}
	*n -= blankLines(k)
	return k, nil
}

// NewPoissonReader generates the same arrival stream as
// Generator.PoissonArrivals — identical seed and config give the
// byte-identical demand sequence — without materializing the trace. An
// invalid config (as in PoissonArrivals) yields an empty stream.
func NewPoissonReader(seed int64, cfg PoissonConfig) Reader {
	return &poissonReader{
		g:   NewGenerator(seed),
		cfg: cfg,
		ok:  len(cfg.Hosts) >= 2 && cfg.Lambda > 0 && cfg.Horizon > 0,
	}
}

type poissonReader struct {
	g   *Generator
	cfg PoissonConfig
	t   simtime.Time
	ok  bool
}

func (p *poissonReader) Next() (Demand, error) {
	if !p.ok {
		return Demand{}, io.EOF
	}
	d, ok := p.g.nextPoisson(p.cfg, &p.t)
	if !ok {
		p.ok = false
		return Demand{}, io.EOF
	}
	return d, nil
}

// MergeReaders interleaves already-sorted streams into one sorted stream,
// breaking Start ties by reader position. Any source error (other than
// io.EOF) ends the merged stream with that error.
func MergeReaders(rs ...Reader) Reader {
	m := &mergeReader{rs: rs, heads: make([]Demand, len(rs)), live: make([]bool, len(rs))}
	for i := range rs {
		m.advance(i)
	}
	return m
}

type mergeReader struct {
	rs    []Reader
	heads []Demand
	live  []bool
	err   error
}

func (m *mergeReader) advance(i int) {
	d, err := m.rs[i].Next()
	switch {
	case err == io.EOF:
		m.live[i] = false
	case err != nil:
		m.live[i] = false
		if m.err == nil {
			m.err = err
		}
	default:
		m.heads[i] = d
		m.live[i] = true
	}
}

func (m *mergeReader) Next() (Demand, error) {
	if m.err != nil {
		return Demand{}, m.err
	}
	best := -1
	for i, ok := range m.live {
		if ok && (best < 0 || m.heads[i].Start < m.heads[best].Start) {
			best = i
		}
	}
	if best < 0 {
		return Demand{}, io.EOF
	}
	d := m.heads[best]
	m.advance(best)
	if m.err != nil {
		return Demand{}, m.err
	}
	return d, nil
}

// canReadAhead reports whether r is built by this package alone. Such a
// reader's Next touches nothing outside it (a CSV reader's io.Reader
// aside), so Ingest may call it ahead of the engine, on a goroutine of
// its own.
func canReadAhead(r Reader) bool {
	switch r := r.(type) {
	case *sliceReader, *windowReader, *poissonReader:
		return true
	case *mergeReader:
		for _, src := range r.rs {
			if !canReadAhead(src) {
				return false
			}
		}
		return true
	}
	return false
}

// Read-ahead batching: the producer fills aheadBatches recycled batches of
// aheadBatch demands, so ingestion holds a fixed buffer whatever the trace.
const (
	aheadBatches = 4
	aheadBatch   = 256
)

// batch is a run of demands pulled in order, then the error (io.EOF
// included) that ended the stream after them, if it did.
type batch struct {
	d   []Demand
	err error
}

// ahead is the engine's end of a read-ahead producer. full and free each
// have room for every batch, so a send on them never waits for the peer.
type ahead struct {
	full chan *batch // filled batches, in stream order
	free chan *batch // consumed batches, back to the producer
	stop chan struct{}
	done chan struct{}
	cur  *batch
	i    int // next demand of cur
}

func startAhead(r Reader) *ahead {
	a := &ahead{
		full: make(chan *batch, aheadBatches),
		free: make(chan *batch, aheadBatches),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for range aheadBatches - 1 {
		a.free <- &batch{d: make([]Demand, 0, aheadBatch)}
	}
	// The engine holds the last batch, empty: its first next hands it over.
	a.cur = &batch{d: make([]Demand, 0, aheadBatch)}
	go produce(r, a.full, a.free, a.stop, a.done)
	return a
}

// produce fills free batches from r and hands them on until the stream
// ends or stop closes. It takes the channels as arguments: Close clears
// nothing the producer reads.
func produce(r Reader, full chan<- *batch, free <-chan *batch, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		var b *batch
		select {
		case b = <-free:
		case <-stop:
			return
		}
		b.d, b.err = b.d[:0], nil
		for len(b.d) < cap(b.d) && b.err == nil {
			var d Demand
			if d, b.err = r.Next(); b.err == nil {
				b.d = append(b.d, d)
			}
		}
		select {
		case full <- b:
		case <-stop:
			return
		}
		if b.err != nil {
			return
		}
	}
}

// next returns the stream's next demand, or the error after the last.
func (a *ahead) next() (Demand, error) {
	for a.i == len(a.cur.d) {
		if a.cur.err != nil {
			return Demand{}, a.cur.err
		}
		a.free <- a.cur // never blocks: free has room for every batch
		a.cur, a.i = <-a.full, 0
	}
	d := a.cur.d[a.i]
	a.i++
	return d, nil
}

// close stops the producer and waits for it to exit.
func (a *ahead) close() {
	close(a.stop)
	<-a.done
}

// Ingest is an engine's end of a Reader: it enforces the nondecreasing
// Start contract and keeps the stream's first failure. Next reports
// ok=false once the stream ends — at io.EOF, on a reader error, or on a
// demand that starts before its predecessor (an error wrapping
// ErrTraceOrder) — and Err then says which.
//
// A reader this package built (CSV, Poisson, TraceReader, and merges of
// only these) is read ahead: from the first Next, a producer goroutine
// fills a few fixed, recycled batches that Next consumes in order, so
// parsing and generation run beside the engine. A reader error still
// arrives after exactly the demands that precede it. Any other Reader is
// called one demand at a time, on the goroutine that calls Next. The
// engine calls Close when its run ends.
type Ingest struct {
	who   string
	r     Reader
	ahead *ahead
	last  simtime.Time
	err   error
	begun bool
	done  bool
}

// NewIngest wraps r for the engine named who, which prefixes order
// errors.
func NewIngest(who string, r Reader) *Ingest { return &Ingest{who: who, r: r} }

// Next returns the stream's next demand, or ok=false once it has ended.
func (in *Ingest) Next() (d Demand, ok bool) {
	if in.done {
		return Demand{}, false
	}
	if !in.begun {
		in.begun = true
		if canReadAhead(in.r) {
			in.ahead = startAhead(in.r)
		}
	}
	var err error
	if in.ahead != nil {
		d, err = in.ahead.next()
	} else {
		d, err = in.r.Next()
	}
	if err == nil && d.Start < in.last {
		err = fmt.Errorf("%s: trace reader went backwards (%v after %v): %w",
			in.who, d.Start, in.last, ErrTraceOrder)
	}
	if err != nil {
		in.Close()
		if err != io.EOF {
			in.err = err
		}
		return Demand{}, false
	}
	in.last = d.Start
	return d, true
}

// Close ends the stream: a read-ahead producer stops, and Close returns
// once it has exited. Close is idempotent and a no-op on a nil Ingest.
func (in *Ingest) Close() {
	if in == nil {
		return
	}
	in.done = true
	if a := in.ahead; a != nil {
		in.ahead = nil
		a.close()
	}
}

// Err reports the failure that ended the stream: nil for a clean end, a
// stream still open, or a nil Ingest.
func (in *Ingest) Err() error {
	if in == nil {
		return nil
	}
	return in.err
}
