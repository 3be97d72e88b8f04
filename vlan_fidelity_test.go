package horse_test

import (
	"context"
	"math"
	"testing"

	"horse"
	"horse/internal/addr"
	"horse/internal/header"
	"horse/internal/openflow"
)

// TestVLANRewriteAcrossFidelities pins that a tag pushed at ingress is
// what downstream switches match on, at every fidelity. The flow engine's
// Walk has always carried the rewritten key hop to hop; the packet engine
// used to re-derive the key from the demand at every switch, so a policy
// that tags at s0 and matches the tag at s1 delivered in Flow and
// table-missed in Packet.
func TestVLANRewriteAcrossFidelities(t *testing.T) {
	run := func(t *testing.T, opts ...horse.Option) []horse.FlowRecord {
		topo := horse.Linear(2, horse.Gig, horse.Gig)
		h0, h1 := topo.MustLookup("h0"), topo.MustLookup("h1")
		s0, s1 := topo.MustLookup("s0"), topo.MustLookup("s1")
		eng, err := horse.New(topo, append(opts, horse.WithMiss(horse.MissDrop))...)
		if err != nil {
			t.Fatal(err)
		}
		net := eng.Network()
		install := func(sw horse.NodeID, m horse.Match, toward horse.NodeID, pre ...openflow.Action) {
			acts := append(pre, openflow.Output(topo.PortToward(sw, toward)))
			if err := net.Switches[sw].Apply(&openflow.FlowMod{
				Switch: sw, Op: openflow.FlowAdd, Priority: 10, Match: m, Instr: openflow.Apply(acts...),
			}, 0); err != nil {
				t.Fatal(err)
			}
		}
		toH1 := header.Match{}.WithEthDst(addr.HostMAC(h1))
		toH0 := header.Match{}.WithEthDst(addr.HostMAC(h0))
		install(s0, toH1, s1, openflow.SetVLAN(7))            // tag at ingress
		install(s1, toH1.WithVLAN(7), h1, openflow.PopVLAN()) // forward only the tag
		install(s1, toH0, s0)                                 // untagged ACK path
		install(s0, toH0, h0)
		tcp := horse.Demand{
			Key: addr.FlowKeyBetween(h0, h1, header.ProtoTCP, 40000, 80),
			Src: h0, Dst: h1, SizeBits: 2e5, RateBps: math.Inf(1), TCP: true,
		}
		udp := horse.Demand{
			Key: addr.FlowKeyBetween(h0, h1, header.ProtoUDP, 40001, 53),
			Src: h0, Dst: h1, Start: horse.Time(horse.Millisecond), SizeBits: 2e5, RateBps: 1e8,
		}
		eng.Load(horse.Trace{tcp, udp})
		col, err := eng.Run(context.Background(), horse.Time(5*horse.Second))
		if err != nil {
			t.Fatal(err)
		}
		return col.Flows()
	}
	cases := map[string][]horse.Option{
		"flow":          {horse.WithFidelity(horse.Flow)},
		"packet":        {horse.WithFidelity(horse.Packet)},
		"packet-k2":     {horse.WithFidelity(horse.Packet), horse.WithShards(2)},
		"hybrid-all":    {horse.WithFidelity(horse.Hybrid), horse.WithPacketFraction(1)},
		"hybrid-halved": {horse.WithFidelity(horse.Hybrid), horse.WithPacketFraction(0.5)},
	}
	for name, opts := range cases {
		opts := opts
		t.Run(name, func(t *testing.T) {
			recs := run(t, opts...)
			if len(recs) != 2 {
				t.Fatalf("%d records, want 2", len(recs))
			}
			for _, r := range recs {
				if r.Outcome != "completed" || !r.Completed {
					t.Errorf("flow %d: outcome %q, want completed (the downstream switch did not see the tag)", r.ID, r.Outcome)
				}
			}
		})
	}
}
