package horse_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"horse"
)

// TestHorizonRecordsStartedDemands pins what a run cut by its time bound
// reports at every fidelity and either way of feeding it: one record per
// demand that started by the bound, and none for a demand that had yet
// to start — whose record would carry an Arrival after its End. Loaded
// and streamed runs of one fidelity report the same records, and every
// cell reports the same demands (the flow engine in completion order).
func TestHorizonRecordsStartedDemands(t *testing.T) {
	topo := horse.FatTree(4, horse.Gig)
	tr := horse.NewGenerator(5).PoissonArrivals(horse.PoissonConfig{
		Hosts: topo.Hosts(), Lambda: 20, Horizon: 2 * horse.Second,
		Sizes: horse.FixedSize(1e6), TCPFraction: 0.5, CBRRateBps: 2e7,
	})
	until := horse.Time(horse.Second)
	due := 0
	for _, d := range tr {
		if d.Start <= until {
			due++
		}
	}
	if due == 0 || due == len(tr) {
		t.Fatalf("%d of %d demands start by the bound; want some on either side", due, len(tr))
	}
	fidelities := []struct {
		name string
		opts []horse.Option
	}{
		{"flow", []horse.Option{horse.WithFidelity(horse.Flow)}},
		{"packet", []horse.Option{horse.WithFidelity(horse.Packet)}},
		{"hybrid", []horse.Option{horse.WithFidelity(horse.Hybrid), horse.WithPacketFraction(0.5)}},
	}
	var ids []int64
	for _, fid := range fidelities {
		var loaded []horse.FlowRecord
		for _, reader := range []bool{false, true} {
			opts := append([]horse.Option{horse.WithMiss(horse.MissDrop)}, fid.opts...)
			if reader {
				opts = append(opts, horse.WithTraceReader(horse.NewTraceReader(tr)))
			}
			eng, err := horse.New(topo, opts...)
			if err != nil {
				t.Fatal(err)
			}
			horse.InstallMACRoutes(eng.Network())
			if !reader {
				eng.Load(tr)
			}
			col, err := eng.Run(context.Background(), until)
			if err != nil {
				t.Fatal(err)
			}
			recs := col.Flows()
			if len(recs) != due {
				t.Errorf("%s reader=%v: %d records, want the %d demands that start by %v", fid.name, reader, len(recs), due, until)
			}
			var got []int64
			for _, r := range recs {
				got = append(got, r.ID)
				if r.Arrival > until {
					t.Errorf("%s reader=%v: record %d arrives at %v, after the bound %v", fid.name, reader, r.ID, r.Arrival, until)
				}
			}
			slices.Sort(got)
			if ids == nil {
				ids = got
			} else if !reflect.DeepEqual(got, ids) {
				t.Errorf("%s reader=%v: record IDs %v, want %v", fid.name, reader, got, ids)
			}
			if !reader {
				loaded = recs
			} else if !reflect.DeepEqual(recs, loaded) {
				t.Errorf("%s: streamed records differ from loaded ones", fid.name)
			}
		}
	}
}
