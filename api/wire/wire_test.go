package wire

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"horse/internal/netgraph"
	"horse/internal/simtime"
	"horse/internal/stats"
)

func TestNegotiate(t *testing.T) {
	cases := []struct {
		name           string
		client, server []string
		want           string
		wantErr        bool
	}{
		{"exact", []string{V1}, []string{V1}, V1, false},
		{"client newer", []string{"horse-wire/v2", V1}, []string{V1}, V1, false},
		{"server newer", []string{V1}, []string{"horse-wire/v2", V1}, V1, false},
		// A mutual version this binary does not speak can never win, even
		// if both peers offer it.
		{"unknown mutual version loses", []string{"horse-wire/v2", V1}, []string{V1, "horse-wire/v2"}, V1, false},
		{"no overlap", []string{"horse-wire/v9"}, []string{V1}, "", true},
		{"empty client", nil, []string{V1}, "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := Negotiate(c.client, c.server)
			if c.wantErr {
				if err == nil {
					t.Fatalf("Negotiate(%v, %v) = %q, want error", c.client, c.server, got)
				}
				var verr *VersionError
				if !errors.As(err, &verr) {
					t.Fatalf("error %v is not a *VersionError", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Negotiate: %v", err)
			}
			if got != c.want {
				t.Fatalf("Negotiate(%v, %v) = %q, want %q", c.client, c.server, got, c.want)
			}
		})
	}
}

func TestFloatRoundTrip(t *testing.T) {
	values := []float64{0, 1, -1, 0.1, 1e-300, 1e300, 12345.6789, math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)}
	for _, v := range values {
		b, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("marshal %g: %v", v, err)
		}
		var got Float
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if float64(got) != v {
			t.Fatalf("round trip %g -> %s -> %g", v, b, float64(got))
		}
	}
	var nan Float
	if err := json.Unmarshal([]byte(`"nan"`), &nan); err != nil || !math.IsNaN(float64(nan)) {
		t.Fatalf(`"nan" decoded to %g, err %v`, float64(nan), err)
	}
	var bad Float
	if err := json.Unmarshal([]byte(`"seven"`), &bad); err == nil {
		t.Fatal(`"seven" decoded without error`)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	in := stats.FlowRecord{
		ID: 7, Arrival: 1000, End: simtime.Time(3 * simtime.Second),
		SizeBits: math.Inf(1), SentBits: 8.125e6,
		Completed: false, Outcome: "dropped", PathLen: 5, Punts: 2,
	}
	b, err := json.Marshal(FromRecord(in))
	if err != nil {
		t.Fatal(err)
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if got := rec.FlowRecord(); got != in {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, got)
	}
}

func TestTopoSpecBuild(t *testing.T) {
	good := []TopoSpec{
		{Kind: TopoLinear, N: 3},
		{Kind: TopoStar, N: 4},
		{Kind: TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 2},
		{Kind: TopoFatTree, K: 4},
		{Kind: TopoRing, N: 4},
		{Kind: TopoDumbbell, N: 2},
		{Kind: TopoRandom, N: 6, P: 0.5, Seed: 1},
	}
	for _, spec := range good {
		if _, err := spec.Build(); err != nil {
			t.Errorf("Build(%+v): %v", spec, err)
		}
	}
	bad := []TopoSpec{
		{},
		{Kind: "mesh"},
		{Kind: TopoLinear},
		{Kind: TopoFatTree, K: 3},
		{Kind: TopoRandom, N: 6, P: 1.5},
		{Kind: TopoLinear, N: 2, HostLink: &LinkSpec{RateBps: -1}},
	}
	for _, spec := range bad {
		_, err := spec.Build()
		if err == nil {
			t.Errorf("Build(%+v) succeeded, want *SpecError", spec)
			continue
		}
		var serr *SpecError
		if !errors.As(err, &serr) {
			t.Errorf("Build(%+v) error %v is not a *SpecError", spec, err)
		}
	}
}

func TestTopoSpecDeterministic(t *testing.T) {
	spec := TopoSpec{Kind: TopoRandom, N: 10, P: 0.4, Seed: 42}
	a, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.Build()
	if a.NumLinks() != b.NumLinks() || len(a.Hosts()) != len(b.Hosts()) {
		t.Fatalf("same spec built different topologies: %d/%d links, %d/%d hosts",
			a.NumLinks(), b.NumLinks(), len(a.Hosts()), len(b.Hosts()))
	}
}

func TestWorkloadSpecTrace(t *testing.T) {
	topo, err := TopoSpec{Kind: TopoLinear, N: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}

	w := WorkloadSpec{Demands: []DemandSpec{
		{Src: "h0", Dst: "h1", SizeBits: 8e5, RateBps: Float(math.Inf(1)), TCP: true},
		{Src: "h1", Dst: "h0", StartNs: 1e6, SizeBits: 8e5, RateBps: 1e7},
	}}
	tr, err := w.Trace(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 {
		t.Fatalf("got %d demands, want 2", len(tr))
	}
	if tr[0].Key == tr[1].Key {
		t.Fatal("default ports collided: both demands share a flow key")
	}
	if !math.IsInf(tr[0].RateBps, 1) || !tr[0].TCP {
		t.Fatalf("demand 0 lost its backlogged-TCP shape: %+v", tr[0])
	}
	if host := topo.Node(tr[0].Src); host.Kind != netgraph.KindHost {
		t.Fatalf("src resolved to non-host %+v", host)
	}

	// Generated workloads are seed-reproducible.
	p := WorkloadSpec{Poisson: &PoissonSpec{
		Seed: 3, Lambda: 500, HorizonNs: int64(simtime.Second),
		Size: SizeSpec{Kind: SizeFixed, Bits: 1e5}, TCPFraction: 0.5,
	}}
	t1, err := p.Trace(topo)
	if err != nil {
		t.Fatal(err)
	}
	t2, _ := p.Trace(topo)
	if len(t1) == 0 || len(t1) != len(t2) {
		t.Fatalf("poisson regeneration differs: %d vs %d demands", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("poisson demand %d differs across regenerations", i)
		}
	}

	bad := []WorkloadSpec{
		{},
		{Demands: []DemandSpec{{Src: "h0", Dst: "nope", SizeBits: 1, RateBps: 1}}},
		{Demands: []DemandSpec{{Src: "h0", Dst: "s0", SizeBits: 1, RateBps: 1}}},
		{Demands: []DemandSpec{{Src: "h0", Dst: "h0", SizeBits: 1, RateBps: 1}}},
		{Demands: []DemandSpec{{Src: "h0", Dst: "h1", SizeBits: -1, RateBps: 1}}},
		{Poisson: &PoissonSpec{Lambda: 10, HorizonNs: 1, Size: SizeSpec{Kind: "zipf"}}},
	}
	for i, w := range bad {
		if _, err := w.Trace(topo); err == nil {
			t.Errorf("bad workload %d accepted", i)
		}
	}
}

func TestTimelineCompile(t *testing.T) {
	topo, err := TopoSpec{Kind: TopoLeafSpine, Leaves: 2, Spines: 2, Hosts: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	tl, err := Timeline([]EventSpec{
		{AtNs: 1e9, Kind: EventLinkDown, LinkA: "leaf0", LinkB: "spine0"},
		{AtNs: 2e9, Kind: EventLinkUp, LinkA: "spine0", LinkB: "leaf0"}, // reversed endpoints resolve too
		{AtNs: 3e9, Kind: EventSwitchFail, Switch: "spine1"},
		{AtNs: 4e9, Kind: EventSwitchRestart, Switch: "spine1"},
		{AtNs: 5e9, Kind: EventControllerDetach},
		{AtNs: 6e9, Kind: EventControllerReattach},
		{AtNs: 7e9, Kind: EventDemandSurge, Surge: []DemandSpec{
			{Src: "h0", Dst: "h1", SizeBits: 1e5, RateBps: 1e6},
		}},
	}, topo)
	if err != nil {
		t.Fatal(err)
	}
	if tl == nil || len(tl.Events()) != 7 {
		t.Fatalf("timeline = %v, want 7 events", tl)
	}

	if tl, err := Timeline(nil, topo); tl != nil || err != nil {
		t.Fatalf("empty scenario => (%v, %v), want (nil, nil)", tl, err)
	}

	bad := [][]EventSpec{
		{{Kind: "reboot-universe"}},
		{{Kind: EventLinkDown, LinkA: "leaf0", LinkB: "leaf1"}}, // no such link
		{{Kind: EventSwitchFail, Switch: "nope"}},
		{{Kind: EventDemandSurge}},
	}
	for i, evs := range bad {
		if _, err := Timeline(evs, topo); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

// TestV1Fixtures replays checked-in v1 frames: every fixture must keep
// decoding, and its payload must keep carrying the same values. This is
// the compatibility gate for the frozen v1 wire format — if a struct
// change breaks one of these, it needs a v2, not a fixture update.
func TestV1Fixtures(t *testing.T) {
	decode := func(t *testing.T, name string) Frame {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		var f Frame
		if err := json.Unmarshal(b, &f); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if f.V != V1 {
			t.Fatalf("%s: frame version %q, want %q", name, f.V, V1)
		}
		return f
	}

	t.Run("hello", func(t *testing.T) {
		f := decode(t, "hello.json")
		if f.Method != MethodHello || f.ID != 1 {
			t.Fatalf("frame %+v", f)
		}
		var p HelloParams
		if err := json.Unmarshal(f.Params, &p); err != nil {
			t.Fatal(err)
		}
		if len(p.Versions) != 1 || p.Versions[0] != V1 {
			t.Fatalf("versions %v", p.Versions)
		}
	})

	t.Run("welcome", func(t *testing.T) {
		f := decode(t, "welcome.json")
		var w Welcome
		if err := json.Unmarshal(f.Result, &w); err != nil {
			t.Fatal(err)
		}
		if w.Version != V1 {
			t.Fatalf("welcome %+v", w)
		}
	})

	t.Run("submit", func(t *testing.T) {
		f := decode(t, "submit.json")
		var p SubmitParams
		if err := json.Unmarshal(f.Params, &p); err != nil {
			t.Fatal(err)
		}
		if p.Name != "exp1" || !p.Stream {
			t.Fatalf("params %+v", p)
		}
		spec := p.Spec
		if spec.Topology.Kind != TopoLeafSpine || spec.UntilNs != 5e9 {
			t.Fatalf("spec %+v", spec)
		}
		if len(spec.Workload.Demands) != 2 || spec.Workload.Poisson == nil {
			t.Fatalf("workload %+v", spec.Workload)
		}
		if !math.IsInf(float64(spec.Workload.Demands[0].RateBps), 1) {
			t.Fatal("demand 0 lost its +inf rate")
		}
		if !math.IsInf(float64(spec.Workload.Demands[1].SizeBits), 1) {
			t.Fatal("demand 1 lost its +inf size")
		}
		if len(spec.Scenario) != 2 || spec.Scenario[0].Kind != EventLinkDown {
			t.Fatalf("scenario %+v", spec.Scenario)
		}
		// The fixture spec must stay buildable end to end.
		topo, err := spec.Topology.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := spec.Workload.Trace(topo); err != nil {
			t.Fatal(err)
		}
		if _, err := Timeline(spec.Scenario, topo); err != nil {
			t.Fatal(err)
		}
	})

	// A v1 submit carrying the event-queue backend selection (added after
	// the first v1 cut; additive, so old daemons ignore it and old clients
	// never send it).
	t.Run("submit-event-queue", func(t *testing.T) {
		f := decode(t, "submit-event-queue.json")
		var p SubmitParams
		if err := json.Unmarshal(f.Params, &p); err != nil {
			t.Fatal(err)
		}
		if p.Spec.Options.EventQueue != "wheel" {
			t.Fatalf("event_queue = %q, want \"wheel\"", p.Spec.Options.EventQueue)
		}
		if _, err := p.Spec.Topology.Build(); err != nil {
			t.Fatal(err)
		}
	})

	// A v1 submit naming a backend that no longer exists: "calendar" (and
	// the older calendar_queue switch) must keep decoding — horse.SpecOptions
	// treats both as aliases for the default wheel (TestSpecEventQueueAliases
	// in the root package runs this fixture).
	t.Run("submit-event-queue-calendar", func(t *testing.T) {
		f := decode(t, "submit-event-queue-calendar.json")
		var p SubmitParams
		if err := json.Unmarshal(f.Params, &p); err != nil {
			t.Fatal(err)
		}
		if o := p.Spec.Options; o.EventQueue != "calendar" || !o.CalendarQueue {
			t.Fatalf("options %+v, want event_queue \"calendar\" and calendar_queue set", o)
		}
		if _, err := p.Spec.Topology.Build(); err != nil {
			t.Fatal(err)
		}
	})

	// A v1 submit carrying link-degradation models: a default Bernoulli
	// model, a per-link adaptive-rate override, a seed, and a
	// degrade/restore scenario pair (additive v1 fields).
	t.Run("submit-link-model", func(t *testing.T) {
		f := decode(t, "submit-link-model.json")
		var p SubmitParams
		if err := json.Unmarshal(f.Params, &p); err != nil {
			t.Fatal(err)
		}
		spec := p.Spec
		o := spec.Options
		if o.LinkModel == nil || o.LinkModel.Kind != LinkModelBernoulli || o.LinkModel.Loss != 0.005 {
			t.Fatalf("link_model %+v", o.LinkModel)
		}
		if o.LinkModelSeed != 42 {
			t.Fatalf("link_model_seed = %d, want 42", o.LinkModelSeed)
		}
		if len(o.LinkModelFor) != 1 || o.LinkModelFor[0].Model.Kind != LinkModelAdaptiveRate {
			t.Fatalf("link_model_for %+v", o.LinkModelFor)
		}
		if len(spec.Scenario) != 2 ||
			spec.Scenario[0].Kind != EventLinkDegrade || spec.Scenario[0].Model == nil ||
			spec.Scenario[1].Kind != EventLinkRestore {
			t.Fatalf("scenario %+v", spec.Scenario)
		}
		if spec.Scenario[0].Model.PBadGood != 0.2 {
			t.Fatalf("degrade model %+v", spec.Scenario[0].Model)
		}
		// The fixture must stay compilable end to end: models, per-link
		// resolution, and the scenario timeline.
		topo, err := spec.Topology.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.LinkModel.Model("options.link_model"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := o.LinkModelFor[0].Resolve(topo, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := Timeline(spec.Scenario, topo); err != nil {
			t.Fatal(err)
		}
	})

	// A v1 submit carrying the sharded-executor fields, which the daemon
	// now accepts and ignores (TestSpecShardFieldsIgnored in the root
	// package runs this fixture).
	t.Run("submit-shards", func(t *testing.T) {
		f := decode(t, "submit-shards.json")
		var p SubmitParams
		if err := json.Unmarshal(f.Params, &p); err != nil {
			t.Fatal(err)
		}
		o := p.Spec.Options
		if o.Shards != 4 || o.ShardWorkers == nil || *o.ShardWorkers != 2 || o.ShardBalancing != BalanceSteal {
			t.Fatalf("options %+v, want shards 4, shard_workers 2, shard_balancing %q", o, BalanceSteal)
		}
	})

	t.Run("submit-result", func(t *testing.T) {
		f := decode(t, "submit-result.json")
		var st SessionStatus
		if err := json.Unmarshal(f.Result, &st); err != nil {
			t.Fatal(err)
		}
		if st.Session != "s1" || st.State != StateQueued || st.Workers != 1 {
			t.Fatalf("status %+v", st)
		}
	})

	t.Run("progress-event", func(t *testing.T) {
		f := decode(t, "progress-event.json")
		if f.Event != EventProgress || f.Session != "s1" {
			t.Fatalf("frame %+v", f)
		}
		var p ProgressEvent
		if err := json.Unmarshal(f.Data, &p); err != nil {
			t.Fatal(err)
		}
		if p.NowNs != 1500000000 || p.Events != 42137 {
			t.Fatalf("progress %+v", p)
		}
	})

	t.Run("record-event", func(t *testing.T) {
		f := decode(t, "record-event.json")
		var r Record
		if err := json.Unmarshal(f.Data, &r); err != nil {
			t.Fatal(err)
		}
		if r.ID != 3 || !math.IsInf(float64(r.SizeBits), 1) || r.Outcome != "completed" {
			t.Fatalf("record %+v", r)
		}
	})

	t.Run("done-event", func(t *testing.T) {
		f := decode(t, "done-event.json")
		var d DoneEvent
		if err := json.Unmarshal(f.Data, &d); err != nil {
			t.Fatal(err)
		}
		if d.State != StateDone || d.Summary == nil {
			t.Fatalf("done %+v", d)
		}
		if d.Summary.Counters.FlowsCompleted != 100 || d.Summary.FCT == nil || d.Summary.FCT.N != 100 {
			t.Fatalf("summary %+v", d.Summary)
		}
	})

	t.Run("error", func(t *testing.T) {
		f := decode(t, "error-queue-full.json")
		if f.Error == nil || f.Error.Code != CodeQueueFull {
			t.Fatalf("frame %+v", f)
		}
	})
}
