package dataplane

import (
	"math"
	"testing"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/openflow"
	"horse/internal/simtime"
)

func testKey(srcHost, dstHost uint64, dstPort uint16) header.FlowKey {
	return header.FlowKey{
		EthSrc:  header.MACFromUint64(srcHost),
		EthDst:  header.MACFromUint64(dstHost),
		EthType: header.EthTypeIPv4,
		IPSrc:   header.IPv4FromUint32(uint32(0x0a000000 + srcHost)),
		IPDst:   header.IPv4FromUint32(uint32(0x0a000000 + dstHost)),
		Proto:   header.ProtoTCP,
		SrcPort: 30000,
		DstPort: dstPort,
	}
}

func TestApplyFlowMod(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	err := s.Apply(&openflow.FlowMod{
		Op: openflow.FlowAdd, Table: 0, Priority: 10,
		Match: header.Match{}.WithDstPort(80),
		Instr: openflow.Apply(openflow.Output(3)),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tables[0].Len() != 1 {
		t.Fatal("entry not installed")
	}
	if err := s.Apply(&openflow.FlowMod{Table: 99}, 0); err == nil {
		t.Error("bad table accepted")
	}
	// Delete.
	if err := s.Apply(&openflow.FlowMod{Op: openflow.FlowDelete, Table: 0, Match: header.MatchAll}, 0); err != nil {
		t.Fatal(err)
	}
	if s.Tables[0].Len() != 0 {
		t.Error("delete did not clear the table")
	}
}

func TestApplyGroupAndMeterMods(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	if err := s.Apply(&openflow.GroupMod{Op: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupSelect,
		Buckets: []*openflow.Bucket{{Actions: []openflow.Action{openflow.Output(1)}}}}, 0); err != nil {
		t.Fatal(err)
	}
	if s.Groups.Get(1) == nil {
		t.Error("group missing")
	}
	if err := s.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 2, RateBps: 1e8}, 0); err != nil {
		t.Fatal(err)
	}
	if s.Meters.Get(2) == nil {
		t.Error("meter missing")
	}
	s.Apply(&openflow.GroupMod{Op: openflow.GroupDelete, GroupID: 1}, 0)
	s.Apply(&openflow.MeterMod{Op: openflow.MeterDelete, MeterID: 2}, 0)
	if s.Groups.Get(1) != nil || s.Meters.Get(2) != nil {
		t.Error("deletes did not work")
	}
}

// TestApplyRejectsNaNMeterRate pins that a MeterMod with a NaN rate, add
// or modify, is refused and leaves the meter table as it was: a NaN
// capacity would reach the fair-share allocator, whose incremental and
// full solves disagree on it.
func TestApplyRejectsNaNMeterRate(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	if err := s.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 2, RateBps: math.NaN()}, 0); err == nil {
		t.Error("MeterAdd with a NaN rate applied")
	}
	if s.Meters.Get(2) != nil {
		t.Error("NaN meter installed")
	}
	if err := s.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 2, RateBps: 1e8}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(&openflow.MeterMod{Op: openflow.MeterModify, MeterID: 2, RateBps: math.NaN()}, 0); err == nil {
		t.Error("MeterModify with a NaN rate applied")
	}
	if m := s.Meters.Get(2); m == nil || m.RateBps != 1e8 {
		t.Errorf("meter after a refused modify: %+v, want rate 1e8", m)
	}
}

func TestProcessMissBehaviors(t *testing.T) {
	drop := NewSwitch(0, MissDrop)
	d := drop.Process(testKey(1, 2, 80), PortLive{})
	if !d.Drop || !d.Miss {
		t.Errorf("MissDrop: %+v", d)
	}
	punt := NewSwitch(0, MissController)
	d = punt.Process(testKey(1, 2, 80), PortLive{})
	if !d.ToController || d.Drop {
		t.Errorf("MissController: %+v", d)
	}
	if punt.PacketIns != 1 {
		t.Errorf("PacketIns = %d", punt.PacketIns)
	}
}

func TestProcessOutput(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Output(7))}, 0)
	d := s.Process(testKey(1, 2, 80), PortLive{})
	if d.Out != 7 || d.Drop || d.ToController {
		t.Errorf("decision = %+v", d)
	}
	if len(d.Entries) != 1 {
		t.Error("matched entry not recorded")
	}
}

func TestProcessGotoTablePipeline(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	// Table 0: meter + goto table 1. Table 1: output.
	s.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 5, RateBps: 1e8}, 0)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Table: 0, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Instructions{Meter: 5}.WithGoto(1)}, 0)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Table: 1, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Output(2))}, 0)
	d := s.Process(testKey(1, 2, 80), PortLive{})
	if d.Out != 2 {
		t.Errorf("pipeline output = %d, want 2", d.Out)
	}
	if len(d.Meters) != 1 || d.Meters[0] != 5 {
		t.Errorf("meters = %v", d.Meters)
	}
	if len(d.Entries) != 2 {
		t.Errorf("entries = %d, want 2", len(d.Entries))
	}
}

func TestProcessGotoMissInLaterTable(t *testing.T) {
	s := NewSwitch(0, MissController)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Table: 0, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Instructions{}.WithGoto(1)}, 0)
	d := s.Process(testKey(1, 2, 80), PortLive{})
	// Miss in table 1 after matching in table 0 with no output decision:
	// the switch miss behavior applies, so a reactive switch punts.
	if !d.ToController || d.Drop {
		t.Errorf("later-table miss on a reactive switch should punt: %+v", d)
	}
	// On a drop-miss switch the same pipeline drops.
	s2 := NewSwitch(0, MissDrop)
	s2.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Table: 0, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Instructions{}.WithGoto(1)}, 0)
	if d := s2.Process(testKey(1, 2, 80), PortLive{}); !d.Drop {
		t.Errorf("later-table miss on a drop switch should drop: %+v", d)
	}
}

func TestProcessVLANRewrite(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Table: 0, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Instructions{Actions: []openflow.Action{openflow.SetVLAN(42)}}.WithGoto(1)}, 0)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Table: 1, Priority: 1,
		Match: header.Match{}.WithVLAN(42),
		Instr: openflow.Apply(openflow.Output(9))}, 0)
	d := s.Process(testKey(1, 2, 80), PortLive{})
	if d.Out != 9 {
		t.Errorf("VLAN-rewritten pipeline failed: %+v", d)
	}
	if d.Key.VLAN != 42 {
		t.Errorf("exit key VLAN = %d", d.Key.VLAN)
	}
	// Pop restores to 0.
	s2 := NewSwitch(0, MissDrop)
	s2.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.PopVLAN(), openflow.Output(1))}, 0)
	k := testKey(1, 2, 80)
	k.VLAN = 7
	d = s2.Process(k, PortLive{})
	if d.Key.VLAN != 0 {
		t.Error("pop_vlan did not clear the tag")
	}
}

func TestProcessGroupSelect(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	s.Apply(&openflow.GroupMod{Op: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupSelect,
		Buckets: []*openflow.Bucket{
			{WatchPort: 1, Actions: []openflow.Action{openflow.Output(1)}},
			{WatchPort: 2, Actions: []openflow.Action{openflow.Output(2)}},
		}}, 0)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.GroupAction(1))}, 0)
	seen := map[netgraph.PortNum]bool{}
	for i := uint64(0); i < 64; i++ {
		d := s.Process(testKey(i, i+1, uint16(i)), PortLive{})
		if d.Out != 1 && d.Out != 2 {
			t.Fatalf("group output = %d", d.Out)
		}
		seen[d.Out] = true
	}
	if len(seen) != 2 {
		t.Error("hash never spread across buckets")
	}
	// Same flow key always picks the same bucket.
	k := testKey(1, 2, 80)
	first := s.Process(k, PortLive{}).Out
	for i := 0; i < 10; i++ {
		if s.Process(k, PortLive{}).Out != first {
			t.Fatal("group selection unstable")
		}
	}
	// Liveness: the switch's port 1 link is down, so only bucket 2 is live.
	topo := netgraph.New()
	sw := topo.AddSwitch("s")
	topo.SetLinkUp(topo.Connect(sw, topo.AddHost("h1"), 1e9, 0), false)
	topo.Connect(sw, topo.AddHost("h2"), 1e9, 0)
	if d := s.Process(k, PortLive{topo, sw}); d.Out != 2 {
		t.Errorf("dead bucket not avoided: %+v", d)
	}
	// Unknown group drops.
	s.Apply(&openflow.GroupMod{Op: openflow.GroupDelete, GroupID: 1}, 0)
	if d := s.Process(k, PortLive{}); !d.Drop {
		t.Error("missing group should drop")
	}
}

func buildNet(t *testing.T) (*Network, *netgraph.Topology) {
	t.Helper()
	topo := netgraph.Linear(3, netgraph.Gig, netgraph.TenGig)
	return NewNetwork(topo, MissController), topo
}

// installPath programs MAC-based forwarding from h0 to h2 on a 3-switch
// linear topology.
func installPath(n *Network, topo *netgraph.Topology, dstMAC header.MAC) {
	h2 := topo.MustLookup("h2")
	for i := 0; i < 3; i++ {
		sw := topo.MustLookup("s" + string(rune('0'+i)))
		var out netgraph.PortNum
		if i == 2 {
			_, hp := topo.AttachedSwitch(h2)
			out = hp
		} else {
			out = topo.PortToward(sw, topo.MustLookup("s"+string(rune('0'+i+1))))
		}
		n.Switches[sw].Apply(&openflow.FlowMod{
			Op: openflow.FlowAdd, Priority: 10,
			Match: header.Match{}.WithEthDst(dstMAC),
			Instr: openflow.Apply(openflow.Output(out)),
		}, 0)
	}
}

func TestWalkDelivered(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	key := testKey(10, 20, 80)
	installPath(n, topo, key.EthDst)
	res := n.Walk(key, h0, h2)
	if res.Terminal != Delivered {
		t.Fatalf("terminal = %v at %d", res.Terminal, res.At)
	}
	if len(res.Hops) != 3 {
		t.Errorf("hops = %d, want 3", len(res.Hops))
	}
	if len(res.Entries) != 3 {
		t.Errorf("entries = %d, want 3", len(res.Entries))
	}
	// Every hop's link must be valid and up.
	for _, h := range res.Hops {
		if h.Link == nil || !h.Link.Up {
			t.Error("hop without live link")
		}
	}
}

func TestWalkPunted(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	res := n.Walk(testKey(10, 20, 80), h0, h2)
	if res.Terminal != Punted {
		t.Fatalf("terminal = %v, want punted on empty reactive tables", res.Terminal)
	}
	if len(res.PacketIns) != 1 {
		t.Errorf("packet-ins = %v", res.PacketIns)
	}
}

func TestWalkDropped(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	key := testKey(10, 20, 80)
	// Blackhole at s1.
	s1 := topo.MustLookup("s1")
	installPath(n, topo, key.EthDst)
	n.Switches[s1].Apply(&openflow.FlowMod{
		Op: openflow.FlowAdd, Priority: 100,
		Match: header.Match{}.WithEthDst(key.EthDst),
		Instr: openflow.Apply(openflow.Drop()),
	}, 0)
	res := n.Walk(key, h0, h2)
	if res.Terminal != Dropped || res.At != s1 {
		t.Errorf("terminal = %v at %d, want dropped at s1", res.Terminal, res.At)
	}
}

func TestWalkLoop(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	s0, s1 := topo.MustLookup("s0"), topo.MustLookup("s1")
	key := testKey(10, 20, 80)
	// s0 -> s1 -> s0 forever.
	n.Switches[s0].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Output(topo.PortToward(s0, s1)))}, 0)
	n.Switches[s1].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Output(topo.PortToward(s1, s0)))}, 0)
	res := n.Walk(key, h0, h2)
	if res.Terminal != Looped {
		t.Errorf("terminal = %v, want looped", res.Terminal)
	}
}

func TestWalkStuckOnDownLink(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	key := testKey(10, 20, 80)
	installPath(n, topo, key.EthDst)
	// Kill the s1-s2 link; s1 still forwards into it.
	s1, s2 := topo.MustLookup("s1"), topo.MustLookup("s2")
	topo.SetLinkUp(topo.LinkAt(s1, topo.PortToward(s1, s2)).ID, false)
	res := n.Walk(key, h0, h2)
	if res.Terminal != Stuck || res.At != s1 {
		t.Errorf("terminal = %v at %v, want stuck at s1", res.Terminal, res.At)
	}
}

func TestWalkMisdelivery(t *testing.T) {
	n, topo := buildNet(t)
	h0 := topo.MustLookup("h0")
	h1 := topo.MustLookup("h1")
	h2 := topo.MustLookup("h2")
	key := testKey(10, 20, 80)
	// s0 forwards to s1; s1 delivers to its local host h1 although the
	// flow is destined to h2: a misconfigured policy.
	s0, s1 := topo.MustLookup("s0"), topo.MustLookup("s1")
	n.Switches[s0].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Output(topo.PortToward(s0, s1)))}, 0)
	_, h1port := topo.AttachedSwitch(h1)
	n.Switches[s1].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Output(h1port))}, 0)
	res := n.Walk(key, h0, h2)
	if res.Terminal != Dropped || res.At != h1 {
		t.Errorf("terminal = %v at %v, want dropped at the wrong host", res.Terminal, res.At)
	}
	_ = h0
}

func TestWalkFlood(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	s0 := topo.MustLookup("s0")
	n.Switches[s0].Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Flood())}, 0)
	res := n.Walk(testKey(10, 20, 80), h0, h2)
	if res.Terminal != Flooded {
		t.Fatalf("terminal = %v, want flooded", res.Terminal)
	}
	if !res.FloodReaches {
		t.Error("flood should reach h2 in a connected topology")
	}
	// With the fabric partitioned the flood cannot reach.
	s1, s2 := topo.MustLookup("s1"), topo.MustLookup("s2")
	topo.SetLinkUp(topo.LinkAt(s1, topo.PortToward(s1, s2)).ID, false)
	res = n.Walk(testKey(10, 20, 80), h0, h2)
	if res.FloodReaches {
		t.Error("flood crossed a down link")
	}
}

func TestWalkMeterCollection(t *testing.T) {
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	key := testKey(10, 20, 80)
	installPath(n, topo, key.EthDst)
	s1 := topo.MustLookup("s1")
	n.Switches[s1].Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 3, RateBps: 5e8}, 0)
	// Re-install s1's rule with a meter.
	next := topo.MustLookup("s2")
	n.Switches[s1].Apply(&openflow.FlowMod{
		Op: openflow.FlowAdd, Priority: 10,
		Match: header.Match{}.WithEthDst(key.EthDst),
		Instr: openflow.Apply(openflow.Output(topo.PortToward(s1, next))).WithMeter(3),
	}, 0)
	res := n.Walk(key, h0, h2)
	if res.Terminal != Delivered {
		t.Fatalf("terminal = %v", res.Terminal)
	}
	if len(res.Meters) != 1 || res.Meters[0] != (MeterRef{Switch: s1, Meter: 3}) {
		t.Errorf("meters = %v", res.Meters)
	}
}

func TestWalkIsolatedHost(t *testing.T) {
	n, topo := buildNet(t)
	lone := topo.AddHost("lone")
	h2 := topo.MustLookup("h2")
	res := n.Walk(testKey(9, 20, 80), lone, h2)
	if res.Terminal != Stuck {
		t.Errorf("terminal = %v, want stuck for isolated host", res.Terminal)
	}
}

func TestEntryCountersWiring(t *testing.T) {
	// Entries returned by Walk alias the installed entries, so byte
	// accounting by the engine lands on the real counters.
	n, topo := buildNet(t)
	h0, h2 := topo.MustLookup("h0"), topo.MustLookup("h2")
	key := testKey(10, 20, 80)
	installPath(n, topo, key.EthDst)
	res := n.Walk(key, h0, h2)
	res.Entries[0].Bytes += 100
	s0 := topo.MustLookup("s0")
	if got := n.Switches[s0].Tables[0].Entries()[0].Bytes; got != 100 {
		t.Errorf("counter aliasing broken: %d", got)
	}
}

func TestApplyTimeoutPlumbed(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	s.Apply(&openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		IdleTimeout: 5 * simtime.Second, Instr: openflow.Apply(openflow.Output(1))}, simtime.Time(simtime.Second))
	e := s.Tables[0].Entries()[0]
	if e.IdleTimeout != 5*simtime.Second || e.Installed != simtime.Time(simtime.Second) {
		t.Error("timeout/install time not plumbed")
	}
}

// TestGenAdvances: every way the outcome of Process can change advances
// Gen, which is what the packet engine's decision memo is validated by.
func TestGenAdvances(t *testing.T) {
	s := NewSwitch(1, MissDrop)
	last := s.Gen()
	step := func(what string) {
		t.Helper()
		if g := s.Gen(); g == last {
			t.Errorf("%s left Gen at %d", what, g)
		} else {
			last = g
		}
	}
	add := &openflow.FlowMod{Op: openflow.FlowAdd, Priority: 1, Match: header.MatchAll,
		Instr: openflow.Apply(openflow.Output(1)), HardTimeout: simtime.Second}
	if err := s.Apply(add, 0); err != nil {
		t.Fatal(err)
	}
	step("FlowAdd")
	if err := s.Apply(&openflow.GroupMod{Op: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupSelect}, 0); err != nil {
		t.Fatal(err)
	}
	step("GroupAdd")
	if err := s.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 1, RateBps: 1}, 0); err != nil {
		t.Fatal(err)
	}
	step("MeterAdd")
	if got := s.ExpireEntries(simtime.Time(2 * simtime.Second)); len(got) != 1 {
		t.Fatalf("expired %d entries, want 1", len(got))
	}
	step("ExpireEntries")
	s.Apply(&openflow.FlowMod{Op: openflow.FlowDelete, Match: header.MatchAll}, 0)
	step("FlowDelete")
	s.Invalidate()
	step("Invalidate")
	s.Reset()
	step("Reset")
}

// TestResetLeavesEmptyTables: a switch's tables make their maps on first
// insert, so a reset switch must still read as empty everywhere and take
// new state again.
func TestResetLeavesEmptyTables(t *testing.T) {
	s := NewSwitch(0, MissDrop)
	key := testKey(1, 2, 80)
	install := func() {
		t.Helper()
		for table := range s.Tables {
			if err := s.Apply(&openflow.FlowMod{
				Op: openflow.FlowAdd, Table: openflow.TableID(table), Priority: 1,
				Match: header.Match{}.WithEthDst(key.EthDst),
				Instr: openflow.Apply(openflow.Output(1)),
			}, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Apply(&openflow.GroupMod{Op: openflow.GroupAdd, GroupID: 1, Type: openflow.GroupSelect}, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(&openflow.MeterMod{Op: openflow.MeterAdd, MeterID: 1, RateBps: 1e6}, 0); err != nil {
			t.Fatal(err)
		}
	}
	installed := func(want int) {
		t.Helper()
		for i, tab := range s.Tables {
			hit := tab.Lookup(key) != nil
			if tab.Len() != want || hit != (want > 0) {
				t.Fatalf("table %d holds %d entries (lookup hit %v), want %d", i, tab.Len(), hit, want)
			}
		}
		if g, m := s.Groups.Get(1) != nil, s.Meters.Get(1) != nil; s.Groups.Len() != want || s.Meters.Len() != want || g != (want > 0) || m != (want > 0) {
			t.Fatalf("%d groups, %d meters after reset, want %d", s.Groups.Len(), s.Meters.Len(), want)
		}
	}
	installed(0)
	install()
	installed(1)
	s.Reset()
	installed(0)
	if s.Groups.Delete(1) || s.Meters.Delete(1) {
		t.Fatal("a reset switch deleted a group or meter")
	}
	install()
	installed(1)
}
