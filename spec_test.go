package horse_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"horse"
	"horse/api/wire"
)

// specFixture is a small deterministic session: two explicit demands on
// a leaf-spine fabric plus a link flap. Used across the bridge tests and
// mirrored by the service parity tests.
func specFixture() *wire.SessionSpec {
	return &wire.SessionSpec{
		Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
		Workload: wire.WorkloadSpec{Demands: []wire.DemandSpec{
			{Src: "h0", Dst: "h3", SizeBits: 8e5, RateBps: wire.Float(math.Inf(1)), TCP: true},
			{Src: "h1", Dst: "h2", StartNs: 1e6, SizeBits: 8e5, RateBps: 1e8},
		}},
		Scenario: []wire.EventSpec{
			{AtNs: 2e6, Kind: wire.EventLinkDown, LinkA: "leaf0", LinkB: "spine0"},
			{AtNs: 5e6, Kind: wire.EventLinkUp, LinkA: "leaf0", LinkB: "spine0"},
		},
		Options: wire.OptionsSpec{
			Controller: []wire.AppSpec{{Kind: wire.AppProactiveMAC}},
			Miss:       "controller",
		},
		UntilNs: int64(10 * horse.Second),
	}
}

func TestNewFromSpecRuns(t *testing.T) {
	eng, until, err := horse.NewFromSpec(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	if until != horse.Time(10*horse.Second) {
		t.Fatalf("until = %v, want 10s", until)
	}
	col, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}
	if col.FlowsCompleted != 2 {
		t.Fatalf("completed %d flows, want 2", col.FlowsCompleted)
	}
}

// TestNewFromSpecParity is the contract behind the daemon: a spec-built
// engine must produce records identical to the same simulation assembled
// by hand through the public builder.
func TestNewFromSpecParity(t *testing.T) {
	eng, until, err := horse.NewFromSpec(specFixture())
	if err != nil {
		t.Fatal(err)
	}
	specCol, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}

	// The same session, hand-assembled.
	spec := specFixture()
	topo, err := spec.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Workload.Trace(topo)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := wire.Timeline(spec.Scenario, topo)
	if err != nil {
		t.Fatal(err)
	}
	hand, err := horse.New(topo,
		horse.WithController(horse.NewChain(&horse.ProactiveMAC{})),
		horse.WithMiss(horse.MissController),
	)
	if err != nil {
		t.Fatal(err)
	}
	hand.Load(tr)
	if err := tl.Apply(hand, until); err != nil {
		t.Fatal(err)
	}
	handCol, err := hand.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}

	a, b := specCol.Flows(), handCol.Flows()
	if len(a) != len(b) {
		t.Fatalf("spec run: %d records, hand run: %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs:\n spec %+v\n hand %+v", i, a[i], b[i])
		}
	}
}

// TestNewFromSpecStreamed pins NewFromSpec's one ingestion path —
// explicit demands Loaded in the given order, the generator streamed —
// against the eager session it replaced: Load of WorkloadSpec.Trace
// (explicit demands, then the whole generated trace), then
// Timeline.Apply. Every workload shape matches byte for byte at every
// fidelity but three cells. A demand surge Loads before the stream, so with
// a generator it numbers ahead of the generated demands: at Flow and Packet
// fidelity the records are the same up to ID, and at Hybrid fidelity,
// where WithPacketFraction picks packet-level demands by load index, a
// different subset runs packet-level and every demand must still yield
// exactly one record.
func TestNewFromSpecStreamed(t *testing.T) {
	sorted := []wire.DemandSpec{
		{Src: "h0", Dst: "h3", StartNs: 0, SizeBits: 8e5, RateBps: wire.Float(math.Inf(1)), TCP: true},
		{Src: "h1", Dst: "h2", StartNs: 3e6, SizeBits: 4e5, RateBps: 1e8},
		{Src: "h2", Dst: "h1", StartNs: 3e6, SizeBits: 6e5, RateBps: 5e7},
		{Src: "h3", Dst: "h0", StartNs: 40e6, SizeBits: 2e6, RateBps: 1e8},
	}
	unsorted := []wire.DemandSpec{sorted[3], sorted[1], sorted[0], sorted[2]}
	poisson := &wire.PoissonSpec{
		Seed: 7, Lambda: 300, HorizonNs: int64(200 * horse.Millisecond),
		Size: wire.SizeSpec{Kind: "fixed", Bits: 8e5}, TCPFraction: 0.3, CBRRateBps: 1e8,
	}
	surge := []wire.EventSpec{{AtNs: 50e6, Kind: wire.EventDemandSurge, Surge: []wire.DemandSpec{
		{Src: "h3", Dst: "h1", SizeBits: 1e6, RateBps: 1e8},
		{Src: "h0", Dst: "h2", StartNs: 1e6, SizeBits: 1e6, RateBps: wire.Float(math.Inf(1)), TCP: true},
	}}}
	shapes := []struct {
		name     string
		w        wire.WorkloadSpec
		scenario []wire.EventSpec
	}{
		{"poisson", wire.WorkloadSpec{Poisson: poisson}, nil},
		{"sorted-demands", wire.WorkloadSpec{Demands: sorted}, nil},
		{"unsorted-demands", wire.WorkloadSpec{Demands: unsorted}, nil},
		{"demands+poisson", wire.WorkloadSpec{Demands: unsorted, Poisson: poisson}, nil},
		{"poisson+surge", wire.WorkloadSpec{Poisson: poisson}, surge},
		{"demands+poisson+surge", wire.WorkloadSpec{Demands: unsorted, Poisson: poisson}, surge},
	}
	half := 0.5
	fids := []wire.OptionsSpec{
		{Fidelity: wire.FidelityFlow},
		{Fidelity: wire.FidelityPacket},
		{Fidelity: wire.FidelityHybrid, PacketFraction: &half},
	}
	for _, sh := range shapes {
		for _, o := range fids {
			t.Run(sh.name+"/"+o.Fidelity, func(t *testing.T) {
				o.Controller = []wire.AppSpec{{Kind: wire.AppProactiveMAC}}
				o.Miss = "controller"
				spec := &wire.SessionSpec{
					Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
					Workload: sh.w,
					Scenario: sh.scenario,
					Options:  o,
					UntilNs:  int64(10 * horse.Second),
				}
				got := runSpec(t, spec)
				want, offered := runEager(t, spec)
				if len(want) == 0 {
					t.Fatal("eager session produced no records")
				}
				if len(got) != offered || len(want) != offered {
					t.Fatalf("%d records, eager %d, for %d demands", len(got), len(want), offered)
				}
				renumbered := sh.w.Poisson != nil && sh.scenario != nil
				switch {
				case !renumbered:
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("record %d differs:\n eager %+v\nstream %+v", i, want[i], got[i])
						}
					}
				case o.Fidelity != wire.FidelityHybrid:
					unnumbered := func(rs []horse.FlowRecord) map[horse.FlowRecord]int {
						m := map[horse.FlowRecord]int{}
						for _, r := range rs {
							r.ID = 0
							m[r]++
						}
						return m
					}
					if !reflect.DeepEqual(unnumbered(got), unnumbered(want)) {
						t.Fatal("records differ beyond their IDs")
					}
				default:
					for i, r := range got {
						if r.ID != int64(i+1) {
							t.Fatalf("record %d has ID %d, want %d", i, r.ID, i+1)
						}
					}
				}
			})
		}
	}
}

// TestNewFromSpecInputBounded: no session materializes its trace, so a
// Poisson session builds in the same few KiB whatever its horizon; the
// generator runs only once Run pulls from it.
func TestNewFromSpecInputBounded(t *testing.T) {
	for _, horizon := range []horse.Duration{horse.Second, 16 * horse.Second} {
		spec := &wire.SessionSpec{
			Topology: wire.TopoSpec{Kind: wire.TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
			Workload: wire.WorkloadSpec{Poisson: &wire.PoissonSpec{
				Seed: 1, Lambda: 1000, HorizonNs: int64(horizon),
				Size: wire.SizeSpec{Kind: wire.SizeFixed, Bits: 1e4}, CBRRateBps: 2e7,
			}},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := horse.NewFromSpec(spec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("horizon %v: NewFromSpec allocated %d KiB, want at most 64", horizon, n>>10)
		}
	}
}

// runSpec runs a spec-built engine to its horizon and returns its records.
func runSpec(t *testing.T, spec *wire.SessionSpec) []horse.FlowRecord {
	t.Helper()
	eng, until, err := horse.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	col, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}
	return col.Flows()
}

// runEager runs spec as a hand-built eager session — Load of the whole
// materialized trace, then Timeline.Apply — and returns its records and
// the number of demands offered, surges included.
func runEager(t *testing.T, spec *wire.SessionSpec) ([]horse.FlowRecord, int) {
	t.Helper()
	topo, err := spec.Topology.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := horse.SpecOptions(spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := spec.Workload.Trace(topo)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := wire.Timeline(spec.Scenario, topo)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := horse.New(topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	eng.Load(tr)
	offered := len(tr)
	until := spec.Until()
	if tl != nil {
		if err := tl.Apply(eng, until); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range spec.Scenario {
		offered += len(e.Surge)
	}
	col, err := eng.Run(context.Background(), until)
	if err != nil {
		t.Fatal(err)
	}
	return col.Flows(), offered
}

func TestNewFromSpecValidation(t *testing.T) {
	barely := func(mut func(*wire.SessionSpec)) *wire.SessionSpec {
		s := specFixture()
		mut(s)
		return s
	}
	cases := []struct {
		name    string
		spec    *wire.SessionSpec
		asBuild bool // expect *horse.BuildError (else *wire.SpecError)
	}{
		{"nil spec", nil, true},
		{"bad topology", barely(func(s *wire.SessionSpec) { s.Topology.Kind = "moebius" }), false},
		{"bad workload", barely(func(s *wire.SessionSpec) { s.Workload.Demands[0].Dst = "nowhere" }), false},
		{"bad scenario", barely(func(s *wire.SessionSpec) { s.Scenario[0].Switch = ""; s.Scenario[0].Kind = "melt" }), false},
		{"bad fidelity", barely(func(s *wire.SessionSpec) { s.Options.Fidelity = "quantum" }), true},
		{"bad app", barely(func(s *wire.SessionSpec) { s.Options.Controller = []wire.AppSpec{{Kind: "oracle"}} }), true},
		{"bad miss", barely(func(s *wire.SessionSpec) { s.Options.Miss = "explode" }), true},
		{"bad option combo", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityHybrid
			s.Options.Shards = 4
			pf := 0.5
			s.Options.PacketFraction = &pf
		}), true},
		{"bad balancing name", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityPacket
			s.Options.Shards = 4
			s.Options.ShardBalancing = "lopsided"
		}), true},
		{"balancing without shards", barely(func(s *wire.SessionSpec) {
			s.Options.Fidelity = wire.FidelityPacket
			s.Options.ShardBalancing = wire.BalanceSteal
		}), true},
		{"shard workers on flow", barely(func(s *wire.SessionSpec) {
			two := 2
			s.Options.Shards = 4
			s.Options.ShardWorkers = &two
		}), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := horse.NewFromSpec(c.spec)
			if err == nil {
				t.Fatal("spec accepted, want error")
			}
			var berr *horse.BuildError
			var serr *wire.SpecError
			switch {
			case c.asBuild && !errors.As(err, &berr):
				t.Fatalf("error %v is not a *BuildError", err)
			case !c.asBuild && !errors.As(err, &serr):
				t.Fatalf("error %v is not a *SpecError", err)
			}
		})
	}
}

func TestSpecOptionsDefaults(t *testing.T) {
	// A zero OptionsSpec must behave exactly like no options at all.
	spec := specFixture()
	spec.Scenario = nil
	spec.Options = wire.OptionsSpec{}
	eng, until, err := horse.NewFromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	// No controller and default drop-on-miss: flows still traverse the
	// default-built engine (flow fidelity).
	if _, err := eng.Run(context.Background(), until); err != nil {
		t.Fatal(err)
	}
}

// TestSpecShardFieldsIgnored is the wire-compatibility contract for the
// removed sharded executor: the checked-in v1 fixture setting shards,
// shard_workers and shard_balancing still builds and runs, with records
// identical to the same spec without them.
func TestSpecShardFieldsIgnored(t *testing.T) {
	spec := fixtureSpec(t, "submit-shards.json")
	got := runSpec(t, &spec)
	plain := spec
	plain.Options.Shards, plain.Options.ShardWorkers, plain.Options.ShardBalancing = 0, nil, ""
	want := runSpec(t, &plain)
	completed := 0
	for _, r := range want {
		if r.Completed {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("fixture completed no flows")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("shard fields changed the records: %d vs %d", len(got), len(want))
	}
}

// TestSpecWorkloadStreamIgnored is the wire-compatibility contract for
// workload.stream: every session streams its generator, so the checked-in
// v1 fixture setting it decodes and runs to exactly the records of the
// same submit without it.
func TestSpecWorkloadStreamIgnored(t *testing.T) {
	streamed := fixtureSpec(t, "submit-workload-stream.json")
	plain := fixtureSpec(t, "submit.json")
	if !streamed.Workload.Stream || plain.Workload.Stream {
		t.Fatalf("fixtures decode stream=%v and %v, want true and false", streamed.Workload.Stream, plain.Workload.Stream)
	}
	if streamed.Workload.Stream = false; !reflect.DeepEqual(streamed, plain) {
		t.Fatal("fixtures differ beyond workload.stream")
	}
	streamed.Workload.Stream = true
	got, want := runSpec(t, &streamed), runSpec(t, &plain)
	if len(want) == 0 {
		t.Fatal("fixture produced no records")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("workload.stream changed the records: %d vs %d", len(got), len(want))
	}
}

// fixtureSpec decodes the session spec of a checked-in v1 Submit frame.
func fixtureSpec(t *testing.T, name string) wire.SessionSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("api", "wire", "testdata", "v1", name))
	if err != nil {
		t.Fatal(err)
	}
	var f wire.Frame
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var p wire.SubmitParams
	if err := json.Unmarshal(f.Params, &p); err != nil {
		t.Fatal(err)
	}
	return p.Spec
}

// TestSpecEventQueueAliases is the wire-compatibility contract for the
// event_queue names v1 defined: the checked-in v1 fixture naming
// "calendar" (with the older calendar_queue switch set), "auto" and
// "heap" still build and run, with records identical to a spec that
// names none; an unknown name is still a *BuildError.
func TestSpecEventQueueAliases(t *testing.T) {
	fixture := fixtureSpec(t, "submit-event-queue-calendar.json")
	run := func(queue string, calendar bool) []horse.FlowRecord {
		t.Helper()
		spec := fixture
		spec.Options.EventQueue, spec.Options.CalendarQueue = queue, calendar
		eng, until, err := horse.NewFromSpec(&spec)
		if err != nil {
			t.Fatalf("event_queue %q: %v", queue, err)
		}
		col, err := eng.Run(context.Background(), until)
		if err != nil {
			t.Fatal(err)
		}
		return col.Flows()
	}
	want := run("", false)
	if len(want) == 0 {
		t.Fatal("fixture produced no records")
	}
	for _, alias := range []struct {
		queue    string
		calendar bool
	}{
		{fixture.Options.EventQueue, fixture.Options.CalendarQueue}, // as checked in
		{"auto", false},
		{"heap", false},
		{"wheel", false},
		{"", true},
	} {
		if got := run(alias.queue, alias.calendar); !reflect.DeepEqual(got, want) {
			t.Fatalf("event_queue %q calendar_queue %v: %d records differ from the default's %d",
				alias.queue, alias.calendar, len(got), len(want))
		}
	}
	bad := fixture
	bad.Options.EventQueue = "splay"
	var berr *horse.BuildError
	if _, _, err := horse.NewFromSpec(&bad); !errors.As(err, &berr) {
		t.Fatalf("event_queue %q: error %v, want a *BuildError", bad.Options.EventQueue, err)
	}
}
