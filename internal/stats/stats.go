// Package stats implements the "Traffic statistics & network state" block
// of the Horse data plane: per-link utilization time series, flow
// completion records, and event counters, updated as the simulation runs
// and exportable as CSV for the experiment harness.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"horse/internal/netgraph"
	"horse/internal/simtime"
)

// LinkSample is one utilization observation of one link direction.
type LinkSample struct {
	At      simtime.Time
	Link    netgraph.LinkID
	Forward bool // A→B direction
	RateBps float64
	// UsedFrac is RateBps / capacity at sampling time (0 for down links).
	UsedFrac float64
}

// FlowRecord is the outcome of one data flow.
type FlowRecord struct {
	// ID names the flow's demand: its load index + 1, at every fidelity.
	// Demands Loaded before the run number first, in the order given, and
	// then the trace reader's, in the order read — so the same ID names
	// the same demand in a flow, packet or hybrid run of one workload.
	ID        int64
	Arrival   simtime.Time
	End       simtime.Time
	SizeBits  float64
	SentBits  float64
	Completed bool
	// Outcome is how the flow ended: "completed", "dropped" (a table
	// miss or dead source discarded it), "looped" (a forwarding loop),
	// "expired-waiting" (its deadline passed while parked at a table
	// miss), or — for flows still live when the run stopped — "running"
	// or "waiting".
	Outcome string
	PathLen int
	Punts   int // PacketIns this flow triggered
}

// FCT returns the flow completion time.
func (r FlowRecord) FCT() simtime.Duration { return r.End.Sub(r.Arrival) }

// Collector accumulates simulation statistics. The zero value is unusable;
// call NewCollector.
type Collector struct {
	// SampleEvery controls the utilization sampling period (0 disables
	// time-series collection).
	SampleEvery simtime.Duration

	linkSeries []LinkSample
	flows      []FlowRecord
	reroutes   []simtime.Time
	flowSink   func(FlowRecord)

	// Counters.
	FlowsStarted   uint64
	FlowsCompleted uint64
	FlowsDropped   uint64
	FlowsLooped    uint64
	PacketIns      uint64
	FlowMods       uint64
	RateChanges    uint64
	EventsRun      uint64
	PathChanges    uint64
	// PacketsLost counts packets lost to link/switch failures in the
	// packet-level engine (queued or in flight on a link that died, or
	// offered to a dead link before recovery).
	PacketsLost uint64
	// PacketsCorrupted counts frames a link model corrupted at the
	// transmitter in the packet-level engine — degradation loss, kept
	// separate from the outage loss in PacketsLost.
	PacketsCorrupted uint64
	// PacketsQueueDropped counts frames the packet-level engine dropped
	// at a full output queue (drop-tail congestion loss, at switch and
	// host ports alike).
	PacketsQueueDropped uint64
	// PacketsSent counts packet emissions by senders in the packet-level
	// engine (first transmissions plus retransmissions) — the
	// denominator of the retransmit ratio.
	PacketsSent uint64
	// Retransmits counts TCP retransmissions (RTO and fast retransmit)
	// in the packet-level engine.
	Retransmits uint64
}

// NewCollector returns a collector sampling link utilization at the given
// period (0 disables sampling).
func NewCollector(sampleEvery simtime.Duration) *Collector {
	return &Collector{SampleEvery: sampleEvery}
}

// AddLinkSample appends one utilization observation.
func (c *Collector) AddLinkSample(s LinkSample) { c.linkSeries = append(c.linkSeries, s) }

// SetFlowSink diverts finished-flow records: with a sink installed, every
// AddFlow streams its record to sink in recording order instead of
// accumulating it in memory, so Flows() stays empty and a multi-million-
// flow run holds O(1) record state. Counters, link series, and reroute
// times still accumulate. Install before the run; the record stream is
// byte-identical (same records, same order) to what Flows() would have
// returned.
func (c *Collector) SetFlowSink(sink func(FlowRecord)) { c.flowSink = sink }

// AddFlow records a finished flow (or streams it to the flow sink) and
// tallies its outcome into FlowsCompleted, FlowsDropped or FlowsLooped —
// the one place those counters move, so they always agree with the
// records.
func (c *Collector) AddFlow(r FlowRecord) {
	switch {
	case r.Completed:
		c.FlowsCompleted++
	case r.Outcome == "dropped":
		c.FlowsDropped++
	case r.Outcome == "looped":
		c.FlowsLooped++
	}
	if c.flowSink != nil {
		c.flowSink(r)
		return
	}
	c.flows = append(c.flows, r)
}

// Reserve sizes the retained records of a run that has none yet for the
// n it will produce, so Flows() is not regrown as they arrive. It does
// nothing with a flow sink installed.
func (c *Collector) Reserve(n int) {
	if c.flowSink == nil && c.flows == nil {
		c.flows = make([]FlowRecord, 0, n)
	}
}

// maxReservedSamples caps ReserveLinkSeries: a far-off until on a run
// that ends early would otherwise reserve samples it never takes. Past
// the cap the series grows as it fills.
const maxReservedSamples = 1 << 16

// ReserveLinkSeries sizes the link series of a run that has none yet for
// the samples a run to until takes — one per link direction (dirs of
// them) at every SampleEvery tick up to until — so the series is not
// regrown as it fills. It does nothing without sampling or with until
// simtime.Never.
func (c *Collector) ReserveLinkSeries(dirs int, until simtime.Time) {
	if c.SampleEvery <= 0 || until == simtime.Never || c.linkSeries != nil {
		return
	}
	ticks := min(int64(until)/int64(c.SampleEvery), maxReservedSamples)
	if ticks <= 0 || dirs <= 0 {
		return
	}
	c.linkSeries = make([]LinkSample, 0, min(ticks*int64(dirs), maxReservedSamples))
}

// AddReroute records the instant a flow's transmitting path changed — the
// time series scenario metrics use to measure reconvergence latency after
// a scripted failure.
func (c *Collector) AddReroute(at simtime.Time) { c.reroutes = append(c.reroutes, at) }

// RerouteTimes returns every recorded path-change instant in event order.
func (c *Collector) RerouteTimes() []simtime.Time { return c.reroutes }

// Flows returns all finished flow records.
func (c *Collector) Flows() []FlowRecord { return c.flows }

// Counters is a point-in-time copy of a Collector's event counters — the
// value type the service daemon's status and done summaries encode onto
// the wire. Counters stay valid with a flow sink installed (when Flows
// is empty by design), so a streamed session still reports totals.
type Counters struct {
	FlowsStarted        uint64
	FlowsCompleted      uint64
	FlowsDropped        uint64
	FlowsLooped         uint64
	PacketIns           uint64
	FlowMods            uint64
	RateChanges         uint64
	EventsRun           uint64
	PathChanges         uint64
	PacketsLost         uint64
	PacketsCorrupted    uint64
	PacketsQueueDropped uint64
	PacketsSent         uint64
	Retransmits         uint64
}

// Counters snapshots the collector's counters. Call it only when the run
// is not concurrently mutating the collector (after Run returns, or on
// the simulation goroutine).
func (c *Collector) Counters() Counters {
	return Counters{
		FlowsStarted:        c.FlowsStarted,
		FlowsCompleted:      c.FlowsCompleted,
		FlowsDropped:        c.FlowsDropped,
		FlowsLooped:         c.FlowsLooped,
		PacketIns:           c.PacketIns,
		FlowMods:            c.FlowMods,
		RateChanges:         c.RateChanges,
		EventsRun:           c.EventsRun,
		PathChanges:         c.PathChanges,
		PacketsLost:         c.PacketsLost,
		PacketsCorrupted:    c.PacketsCorrupted,
		PacketsQueueDropped: c.PacketsQueueDropped,
		PacketsSent:         c.PacketsSent,
		Retransmits:         c.Retransmits,
	}
}

// LinkSeries returns the utilization time series.
func (c *Collector) LinkSeries() []LinkSample { return c.linkSeries }

// FCTs returns completion times in seconds for all completed flows.
func (c *Collector) FCTs() []float64 {
	var out []float64
	for _, f := range c.flows {
		if f.Completed {
			out = append(out, f.FCT().Seconds())
		}
	}
	return out
}

// Throughputs returns the mean throughput (bits/second) of every completed
// flow.
func (c *Collector) Throughputs() []float64 {
	var out []float64
	for _, f := range c.flows {
		if f.Completed && f.FCT() > 0 {
			out = append(out, f.SentBits/f.FCT().Seconds())
		}
	}
	return out
}

// MeanLinkUtilization returns the average UsedFrac per link direction,
// keyed by (link, forward).
func (c *Collector) MeanLinkUtilization() map[LinkDir]float64 {
	sums := make(map[LinkDir]float64)
	counts := make(map[LinkDir]int)
	for _, s := range c.linkSeries {
		k := LinkDir{s.Link, s.Forward}
		sums[k] += s.UsedFrac
		counts[k]++
	}
	out := make(map[LinkDir]float64, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out
}

// PeakLinkUtilization returns the maximum UsedFrac per link direction.
func (c *Collector) PeakLinkUtilization() map[LinkDir]float64 {
	out := make(map[LinkDir]float64)
	for _, s := range c.linkSeries {
		k := LinkDir{s.Link, s.Forward}
		if s.UsedFrac > out[k] {
			out[k] = s.UsedFrac
		}
	}
	return out
}

// LinkDir identifies one direction of one link.
type LinkDir struct {
	Link    netgraph.LinkID
	Forward bool
}

func (d LinkDir) String() string {
	dir := "fwd"
	if !d.Forward {
		dir = "rev"
	}
	return fmt.Sprintf("link%d/%s", d.Link, dir)
}

// WriteLinkSeriesCSV writes the utilization time series.
func (c *Collector) WriteLinkSeriesCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "link", "dir", "rate_bps", "utilization"}); err != nil {
		return err
	}
	for _, s := range c.linkSeries {
		dir := "fwd"
		if !s.Forward {
			dir = "rev"
		}
		rec := []string{
			strconv.FormatFloat(s.At.Seconds(), 'g', -1, 64),
			strconv.Itoa(int(s.Link)),
			dir,
			strconv.FormatFloat(s.RateBps, 'g', -1, 64),
			strconv.FormatFloat(s.UsedFrac, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFlowsCSV writes per-flow records.
func (c *Collector) WriteFlowsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"id", "arrival_s", "end_s", "size_bits", "sent_bits", "outcome", "fct_s", "path_len", "punts"}); err != nil {
		return err
	}
	for _, f := range c.flows {
		rec := []string{
			strconv.FormatInt(f.ID, 10),
			strconv.FormatFloat(f.Arrival.Seconds(), 'g', -1, 64),
			strconv.FormatFloat(f.End.Seconds(), 'g', -1, 64),
			strconv.FormatFloat(f.SizeBits, 'g', -1, 64),
			strconv.FormatFloat(f.SentBits, 'g', -1, 64),
			f.Outcome,
			strconv.FormatFloat(f.FCT().Seconds(), 'g', -1, 64),
			strconv.Itoa(f.PathLen),
			strconv.Itoa(f.Punts),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// TopLinks returns the n busiest link directions by mean utilization, most
// loaded first.
func (c *Collector) TopLinks(n int) []LinkDir {
	means := c.MeanLinkUtilization()
	dirs := make([]LinkDir, 0, len(means))
	for d := range means {
		dirs = append(dirs, d)
	}
	sort.Slice(dirs, func(i, j int) bool {
		if means[dirs[i]] != means[dirs[j]] {
			return means[dirs[i]] > means[dirs[j]]
		}
		if dirs[i].Link != dirs[j].Link {
			return dirs[i].Link < dirs[j].Link
		}
		return dirs[i].Forward && !dirs[j].Forward
	})
	if n < len(dirs) {
		dirs = dirs[:n]
	}
	return dirs
}
