package wire

import (
	"horse/internal/metrics"
	"horse/internal/simtime"
	"horse/internal/stats"
)

// Record is the wire encoding of one finalized flow record — a faithful,
// lossless mirror of stats.FlowRecord (times as virtual nanoseconds,
// possibly-infinite volumes as Float), so a record streamed over the
// wire decodes back byte-identical to the in-process value.
type Record struct {
	ID        int64  `json:"id"`
	ArrivalNs int64  `json:"arrival_ns"`
	EndNs     int64  `json:"end_ns"`
	SizeBits  Float  `json:"size_bits"`
	SentBits  Float  `json:"sent_bits"`
	Completed bool   `json:"completed"`
	Outcome   string `json:"outcome"`
	PathLen   int    `json:"path_len"`
	Punts     int    `json:"punts"`
}

// FromRecord encodes a stats.FlowRecord.
func FromRecord(r stats.FlowRecord) Record {
	return Record{
		ID:        r.ID,
		ArrivalNs: int64(r.Arrival),
		EndNs:     int64(r.End),
		SizeBits:  Float(r.SizeBits),
		SentBits:  Float(r.SentBits),
		Completed: r.Completed,
		Outcome:   r.Outcome,
		PathLen:   r.PathLen,
		Punts:     r.Punts,
	}
}

// FlowRecord decodes back to the in-process value.
func (r Record) FlowRecord() stats.FlowRecord {
	return stats.FlowRecord{
		ID:        r.ID,
		Arrival:   simtime.Time(r.ArrivalNs),
		End:       simtime.Time(r.EndNs),
		SizeBits:  float64(r.SizeBits),
		SentBits:  float64(r.SentBits),
		Completed: r.Completed,
		Outcome:   r.Outcome,
		PathLen:   r.PathLen,
		Punts:     r.Punts,
	}
}

// Counters mirrors stats.Counters on the wire.
type Counters struct {
	FlowsStarted   uint64 `json:"flows_started"`
	FlowsCompleted uint64 `json:"flows_completed"`
	FlowsDropped   uint64 `json:"flows_dropped"`
	FlowsLooped    uint64 `json:"flows_looped"`
	FlowsStuck     uint64 `json:"flows_stuck"` // always 0, no engine counts it; kept so v1 clients decode
	PacketIns      uint64 `json:"packet_ins"`
	FlowMods       uint64 `json:"flow_mods"`
	RateChanges    uint64 `json:"rate_changes"`
	EventsRun      uint64 `json:"events_run"`
	PathChanges    uint64 `json:"path_changes"`
	PacketsLost    uint64 `json:"packets_lost"`
	// PacketsQueueDropped counts drop-tail losses at full output queues
	// (packet-level engine). v1 clients that predate it ignore it.
	PacketsQueueDropped uint64 `json:"packets_queue_dropped"`
}

// FromCounters encodes a stats.Counters snapshot.
func FromCounters(c stats.Counters) Counters {
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
		PacketsQueueDropped: c.PacketsQueueDropped,
	}
}

// Dist mirrors metrics.Summary: descriptive statistics of a sample (the
// FCT distribution, in a session summary).
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}

// FromSummary encodes a metrics.Summary.
func FromSummary(s metrics.Summary) Dist {
	return Dist{N: s.N, Mean: s.Mean, StdDev: s.StdDev, Min: s.Min, Max: s.Max, P50: s.P50, P90: s.P90, P99: s.P99}
}

// Summary is the terminal result of a session: counter totals, the FCT
// distribution of completed flows (seconds), and the number of flow
// records the session produced. For a canceled session it summarizes the
// partial-but-consistent state at the stop instant.
type Summary struct {
	Counters Counters `json:"counters"`
	FCT      *Dist    `json:"fct,omitempty"`
	Records  int      `json:"records"`
}
