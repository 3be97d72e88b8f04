package horse_test

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"horse"
)

// idTrace is a start-sorted Poisson workload with finite sizes, so every
// demand yields exactly one record whose Arrival is the demand's Start.
func idTrace(topo *horse.Topology) horse.Trace {
	return horse.NewGenerator(11).PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 250, Horizon: 100 * horse.Millisecond,
		Sizes: horse.Pareto{XMin: 1e5, Alpha: 1.5}, TCPFraction: 0.5, CBRRateBps: 2e7,
	})
}

// runIDCell runs one cell: load is Loaded before Run, then streamed (if
// any) comes in through a trace reader. With sink, the records are the
// ones a record sink received; otherwise the collector's.
func runIDCell(t *testing.T, topo *horse.Topology, opts []horse.Option, load, streamed horse.Trace, sink bool) []horse.FlowRecord {
	t.Helper()
	opts = append([]horse.Option{
		horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
		horse.WithMiss(horse.MissController),
	}, opts...)
	var sunk []horse.FlowRecord
	if sink {
		opts = append(opts, horse.WithRecordSink(func(r horse.FlowRecord) { sunk = append(sunk, r) }))
	}
	if streamed != nil {
		opts = append(opts, horse.WithTraceReader(horse.NewTraceReader(streamed)))
	}
	eng, err := horse.New(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if load != nil {
		eng.Load(load)
	}
	col, err := eng.Run(context.Background(), horse.Never)
	if err != nil {
		t.Fatal(err)
	}
	if sink {
		return sunk
	}
	return col.Flows()
}

// checkRecordOrder fails t unless recs arrive in the order one run driver
// gives every fidelity: completion order (nondecreasing End) on a
// flow-level run, strictly ascending ID on a packet-level or hybrid one.
func checkRecordOrder(t *testing.T, flowOnly bool, recs []horse.FlowRecord) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if flowOnly && b.End < a.End {
			t.Fatalf("record %d (ID %d) ends at %v, before record %d (ID %d) at %v", i, b.ID, b.End, i-1, a.ID, a.End)
		}
		if !flowOnly && b.ID <= a.ID {
			t.Fatalf("record %d has ID %d after ID %d", i, b.ID, a.ID)
		}
	}
}

// TestRecordIDIsLoadIndex pins the record-ID contract at every fidelity:
// a record's ID is its demand's load index + 1, counted over the Loads
// made before Run and then the trace reader. The trace is reversed, so
// load order is the opposite of arrival order; a record whose ID named
// its arrival rank would carry the wrong demand's Arrival and SizeBits. Since every cell of a feed is held to
// the same load order, records with the same ID agree across fidelities.
// Every cell also runs with a record sink, which must receive the
// retained records in the same order: completion order at flow fidelity,
// load order otherwise.
func TestRecordIDIsLoadIndex(t *testing.T) {
	topo := horse.LeafSpine(3, 2, 3, horse.Gig, horse.TenGig)
	sorted := idTrace(topo)
	if len(sorted) < 10 {
		t.Fatalf("trace has %d demands", len(sorted))
	}
	rev := slices.Clone(sorted)
	slices.Reverse(rev)
	half := len(rev) / 2
	feeds := []struct {
		name           string
		load, streamed horse.Trace
	}{
		{"load", rev, nil},
		// A reader needs start order.
		{"reader", nil, sorted},
		// The late half reversed, then the early half streamed.
		{"load+reader", rev[:half], sorted[:len(sorted)-half]},
	}
	fidelities := []struct {
		name string
		opts []horse.Option
	}{
		{"flow", []horse.Option{horse.WithFidelity(horse.Flow)}},
		{"packet", []horse.Option{horse.WithFidelity(horse.Packet)}},
	}
	for _, p := range []float64{0, 0.5, 1} {
		fidelities = append(fidelities, struct {
			name string
			opts []horse.Option
		}{fmt.Sprintf("hybrid-%g", p), []horse.Option{horse.WithFidelity(horse.Hybrid), horse.WithPacketFraction(p)}})
	}
	for _, feed := range feeds {
		order := append(slices.Clone(feed.load), feed.streamed...)
		for _, fid := range fidelities {
			t.Run(feed.name+"/"+fid.name, func(t *testing.T) {
				recs := runIDCell(t, topo, fid.opts, feed.load, feed.streamed, false)
				sunk := runIDCell(t, topo, fid.opts, feed.load, feed.streamed, true)
				if !reflect.DeepEqual(sunk, recs) {
					t.Fatalf("the sink received %d records, the collector kept %d, not the same in the same order", len(sunk), len(recs))
				}
				checkRecordOrder(t, fid.name == "flow", recs)
				if len(recs) != len(order) {
					t.Fatalf("%d records for %d demands", len(recs), len(order))
				}
				seen := make([]bool, len(order))
				for _, r := range recs {
					if r.ID < 1 || int(r.ID) > len(order) || seen[r.ID-1] {
						t.Fatalf("record ID %d out of range or repeated", r.ID)
					}
					seen[r.ID-1] = true
					if d := order[r.ID-1]; r.Arrival != d.Start || r.SizeBits != d.SizeBits {
						t.Errorf("ID %d: arrival %v size %g, want load index %d's %v and %g",
							r.ID, r.Arrival, r.SizeBits, r.ID-1, d.Start, d.SizeBits)
					}
				}
			})
		}
	}

	// Load order names the records and nothing else: a flow-level run of
	// the reversed trace is, record for record and apart from IDs, the run
	// of the same trace sorted by hand.
	flowOnly := []horse.Option{horse.WithFidelity(horse.Flow)}
	bySort := slices.Clone(rev)
	slices.SortStableFunc(bySort, func(a, b horse.Demand) int { return cmp.Compare(a.Start, b.Start) })
	got := runIDCell(t, topo, flowOnly, rev, nil, false)
	want := runIDCell(t, topo, flowOnly, bySort, nil, false)
	if len(got) != len(want) {
		t.Fatalf("reversed run: %d records, sorted run %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.ID, w.ID = 0, 0
		if g != w {
			t.Errorf("record %d: reversed %+v\n sorted %+v", i, got[i], want[i])
		}
	}
}
