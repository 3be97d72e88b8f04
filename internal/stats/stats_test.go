package stats

import (
	"bytes"
	"strings"
	"testing"

	"horse/internal/simtime"
)

func TestFlowRecordFCT(t *testing.T) {
	r := FlowRecord{Arrival: simtime.Time(simtime.Second), End: simtime.Time(3 * simtime.Second)}
	if r.FCT() != 2*simtime.Second {
		t.Errorf("FCT = %v", r.FCT())
	}
}

func TestFCTsOnlyCompleted(t *testing.T) {
	c := NewCollector(0)
	c.AddFlow(FlowRecord{ID: 1, Completed: true, Arrival: 0, End: simtime.Time(simtime.Second), SentBits: 1e9})
	c.AddFlow(FlowRecord{ID: 2, Completed: false, Outcome: "dropped"})
	if got := c.FCTs(); len(got) != 1 || got[0] != 1 {
		t.Errorf("FCTs = %v", got)
	}
	if got := c.Throughputs(); len(got) != 1 || got[0] != 1e9 {
		t.Errorf("Throughputs = %v", got)
	}
}

func TestUtilizationAggregates(t *testing.T) {
	c := NewCollector(simtime.Second)
	c.AddLinkSample(LinkSample{At: 0, Link: 1, Forward: true, UsedFrac: 0.2})
	c.AddLinkSample(LinkSample{At: 1, Link: 1, Forward: true, UsedFrac: 0.6})
	c.AddLinkSample(LinkSample{At: 0, Link: 1, Forward: false, UsedFrac: 0.1})
	c.AddLinkSample(LinkSample{At: 0, Link: 2, Forward: true, UsedFrac: 0.9})
	mean := c.MeanLinkUtilization()
	if got := mean[LinkDir{1, true}]; got != 0.4 {
		t.Errorf("mean fwd = %g", got)
	}
	peak := c.PeakLinkUtilization()
	if got := peak[LinkDir{1, true}]; got != 0.6 {
		t.Errorf("peak = %g", got)
	}
	top := c.TopLinks(2)
	if len(top) != 2 || top[0] != (LinkDir{2, true}) {
		t.Errorf("TopLinks = %v", top)
	}
	// TopLinks with n larger than available returns all.
	if got := c.TopLinks(10); len(got) != 3 {
		t.Errorf("TopLinks(10) returned %d", len(got))
	}
}

func TestCSVExports(t *testing.T) {
	c := NewCollector(simtime.Second)
	c.AddLinkSample(LinkSample{At: simtime.Time(simtime.Second), Link: 3, Forward: true, RateBps: 5e8, UsedFrac: 0.5})
	c.AddFlow(FlowRecord{ID: 7, Arrival: 0, End: simtime.Time(2 * simtime.Second), SizeBits: 1e6, SentBits: 1e6, Completed: true, Outcome: "completed", PathLen: 3, Punts: 1})

	var buf bytes.Buffer
	if err := c.WriteLinkSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("link CSV lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "3,fwd,5e+08,0.5") {
		t.Errorf("link CSV row = %q", lines[1])
	}

	buf.Reset()
	if err := c.WriteFlowsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("flow CSV lines = %d", len(lines))
	}
	if !strings.Contains(lines[1], "completed") || !strings.Contains(lines[1], "7,") {
		t.Errorf("flow CSV row = %q", lines[1])
	}
}

func TestLinkDirString(t *testing.T) {
	if (LinkDir{4, true}).String() != "link4/fwd" {
		t.Error("fwd string wrong")
	}
	if (LinkDir{4, false}).String() != "link4/rev" {
		t.Error("rev string wrong")
	}
}

func TestFlowSinkDivertsRecords(t *testing.T) {
	c := NewCollector(0)
	var got []FlowRecord
	c.AddFlow(FlowRecord{ID: 1}) // before the sink: retained
	c.SetFlowSink(func(r FlowRecord) { got = append(got, r) })
	c.AddFlow(FlowRecord{ID: 2, Completed: true})
	c.AddFlow(FlowRecord{ID: 3})
	if len(c.Flows()) != 1 || c.Flows()[0].ID != 1 {
		t.Errorf("retained = %v, want only the pre-sink record", c.Flows())
	}
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Errorf("streamed = %v, want records 2 and 3 in order", got)
	}
}

// TestAddFlowTalliesOutcomes: the outcome counters move with AddFlow, and
// only there, whether the record is retained or streamed.
func TestAddFlowTalliesOutcomes(t *testing.T) {
	for _, sink := range []bool{false, true} {
		c := NewCollector(0)
		if sink {
			c.SetFlowSink(func(FlowRecord) {})
		}
		for _, r := range []FlowRecord{
			{Completed: true, Outcome: "completed"},
			{Completed: true, Outcome: "completed"},
			{Outcome: "dropped"},
			{Outcome: "looped"},
			{Outcome: "expired-waiting"},
			{Outcome: "running"},
			{Outcome: "waiting"},
		} {
			c.AddFlow(r)
		}
		if c.FlowsCompleted != 2 || c.FlowsDropped != 1 || c.FlowsLooped != 1 {
			t.Errorf("sink=%v: completed/dropped/looped = %d/%d/%d, want 2/1/1",
				sink, c.FlowsCompleted, c.FlowsDropped, c.FlowsLooped)
		}
	}
}

// TestReserveLinkSeries: a finite run reserves one sample per link
// direction per tick, capped, and a horizon with no whole tick — or none
// at all — reserves nothing.
func TestReserveLinkSeries(t *testing.T) {
	for _, c := range []struct {
		every simtime.Duration
		until simtime.Time
		want  int
	}{
		{simtime.Second, simtime.Time(10 * simtime.Second), 10 * 6},
		{simtime.Nanosecond, simtime.Never - 1, maxReservedSamples},
		{simtime.Second, simtime.Never, 0},
		{simtime.Second, -simtime.Time(simtime.Second), 0},
		{simtime.Second, simtime.Time(simtime.Millisecond), 0},
		{0, simtime.Time(10 * simtime.Second), 0},
	} {
		col := NewCollector(c.every)
		col.ReserveLinkSeries(6, c.until)
		if got := cap(col.LinkSeries()); got != c.want {
			t.Errorf("every %v until %v: reserved %d samples, want %d", c.every, c.until, got, c.want)
		}
	}
}
