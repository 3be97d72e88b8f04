package openflow

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
)

func key(dstPort uint16) header.FlowKey {
	return header.FlowKey{
		EthSrc:  header.MACFromUint64(1),
		EthDst:  header.MACFromUint64(2),
		EthType: header.EthTypeIPv4,
		IPSrc:   header.IPv4FromUint32(0x0a000001),
		IPDst:   header.IPv4FromUint32(0x0a000002),
		Proto:   header.ProtoTCP,
		SrcPort: 40000,
		DstPort: dstPort,
	}
}

func TestTableMissOnEmpty(t *testing.T) {
	tb := NewFlowTable()
	if e := tb.Lookup(key(80)); e != nil {
		t.Fatalf("empty table matched: %v", e)
	}
}

func TestPriorityOrder(t *testing.T) {
	tb := NewFlowTable()
	low := &FlowEntry{Priority: 10, Match: header.MatchAll, Instr: Apply(Output(1))}
	high := &FlowEntry{Priority: 100, Match: header.Match{}.WithDstPort(80), Instr: Apply(Output(2))}
	tb.Add(low, 0)
	tb.Add(high, 0)
	if got := tb.Lookup(key(80)); got != high {
		t.Errorf("high-priority specific rule should win, got %v", got)
	}
	if got := tb.Lookup(key(443)); got != low {
		t.Errorf("fallback should win for non-80, got %v", got)
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	tb := NewFlowTable()
	a := &FlowEntry{Priority: 5, Match: header.Match{}.WithProto(header.ProtoTCP)}
	b := &FlowEntry{Priority: 5, Match: header.Match{}.WithDstPort(80)}
	tb.Add(a, 0)
	tb.Add(b, 0)
	if got := tb.Lookup(key(80)); got != a {
		t.Error("equal priority must resolve to first-installed")
	}
}

func TestAddReplacesIdentical(t *testing.T) {
	tb := NewFlowTable()
	m := header.Match{}.WithDstPort(80)
	tb.Add(&FlowEntry{Priority: 7, Match: m, Instr: Apply(Output(1))}, 0)
	tb.Add(&FlowEntry{Priority: 7, Match: m, Instr: Apply(Output(9))}, 5)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after replace", tb.Len())
	}
	e := tb.Lookup(key(80))
	if e.Instr.Actions[0].Port != 9 {
		t.Error("replacement did not take effect")
	}
}

func TestDeleteNonStrict(t *testing.T) {
	tb := NewFlowTable()
	tb.Add(&FlowEntry{Priority: 1, Match: header.Match{}.WithDstPort(80)}, 0)
	tb.Add(&FlowEntry{Priority: 2, Match: header.Match{}.WithDstPort(80).WithProto(header.ProtoTCP)}, 0)
	tb.Add(&FlowEntry{Priority: 3, Match: header.Match{}.WithDstPort(443)}, 0)
	removed := tb.Delete(header.Match{}.WithDstPort(80), 0)
	if len(removed) != 2 {
		t.Fatalf("removed %d, want 2 (all port-80 rules)", len(removed))
	}
	if tb.Len() != 1 {
		t.Errorf("Len = %d, want 1", tb.Len())
	}
	// Wildcard delete clears everything.
	removed = tb.Delete(header.MatchAll, 0)
	if len(removed) != 1 || tb.Len() != 0 {
		t.Error("wildcard delete should clear the table")
	}
}

func TestDeleteByCookie(t *testing.T) {
	tb := NewFlowTable()
	tb.Add(&FlowEntry{Priority: 1, Match: header.Match{}.WithDstPort(80), Cookie: 7}, 0)
	tb.Add(&FlowEntry{Priority: 1, Match: header.Match{}.WithDstPort(443), Cookie: 8}, 0)
	removed := tb.Delete(header.MatchAll, 7)
	if len(removed) != 1 || removed[0].Cookie != 7 {
		t.Errorf("cookie-scoped delete removed %v", removed)
	}
}

func TestDeleteStrict(t *testing.T) {
	tb := NewFlowTable()
	m := header.Match{}.WithDstPort(80)
	tb.Add(&FlowEntry{Priority: 1, Match: m}, 0)
	tb.Add(&FlowEntry{Priority: 2, Match: m}, 0)
	if e := tb.DeleteStrict(m, 2); e == nil || e.Priority != 2 {
		t.Error("strict delete missed")
	}
	if tb.Len() != 1 {
		t.Error("strict delete removed too much")
	}
	if tb.DeleteStrict(m, 99) != nil {
		t.Error("strict delete matched a ghost")
	}
}

func TestTimeouts(t *testing.T) {
	tb := NewFlowTable()
	e := &FlowEntry{Priority: 1, Match: header.MatchAll, IdleTimeout: 10 * simtime.Second}
	tb.Add(e, 0)
	if e.Expired(5 * 1e9) {
		t.Error("expired too early")
	}
	if !e.Expired(simtime.Time(10 * simtime.Second)) {
		t.Error("not expired at idle timeout")
	}
	e.LastUsed = simtime.Time(8 * simtime.Second)
	if e.Expired(simtime.Time(15 * simtime.Second)) {
		t.Error("idle timer should reset on use")
	}
	hard := &FlowEntry{Priority: 2, Match: header.Match{}.WithDstPort(1), HardTimeout: 20 * simtime.Second}
	tb.Add(hard, 0)
	hard.LastUsed = simtime.Time(19 * simtime.Second)
	if !hard.Expired(simtime.Time(20 * simtime.Second)) {
		t.Error("hard timeout must fire regardless of use")
	}
	removed := tb.Expire(simtime.Time(30 * simtime.Second))
	if len(removed) != 2 {
		t.Errorf("Expire removed %d, want 2", len(removed))
	}
}

func TestExpiresAtAndNextExpiry(t *testing.T) {
	tb := NewFlowTable()
	if tb.NextExpiry() != simtime.Never {
		t.Error("empty table must never expire")
	}
	e := &FlowEntry{Priority: 1, Match: header.MatchAll}
	tb.Add(e, 0)
	if e.ExpiresAt() != simtime.Never {
		t.Error("no-timeout entry must never expire")
	}
	e2 := &FlowEntry{Priority: 2, Match: header.Match{}.WithDstPort(5), IdleTimeout: simtime.Second, HardTimeout: 3 * simtime.Second}
	tb.Add(e2, simtime.Time(10*simtime.Second))
	want := simtime.Time(11 * simtime.Second) // idle fires first
	if got := e2.ExpiresAt(); got != want {
		t.Errorf("ExpiresAt = %v, want %v", got, want)
	}
	if got := tb.NextExpiry(); got != want {
		t.Errorf("NextExpiry = %v, want %v", got, want)
	}
}

func TestGroupSelectWeighted(t *testing.T) {
	g := &Group{ID: 1, Type: GroupSelect, Buckets: []*Bucket{
		{Weight: 3, Actions: []Action{Output(1)}},
		{Weight: 1, Actions: []Action{Output(2)}},
	}}
	counts := map[netgraph.PortNum]int{}
	for h := uint64(0); h < 4000; h++ {
		b := g.SelectBucket(h, nil)
		if b == nil {
			t.Fatal("nil bucket with live buckets present")
		}
		counts[b.Actions[0].Port]++
	}
	// Weight 3:1 should give roughly 3000:1000 (mixing makes it
	// statistical, not exact).
	if counts[1] < 2700 || counts[1] > 3300 || counts[1]+counts[2] != 4000 {
		t.Errorf("weighted selection = %v, want ~3000/1000", counts)
	}
}

func TestGroupSelectLiveness(t *testing.T) {
	g := &Group{ID: 1, Type: GroupSelect, Buckets: []*Bucket{
		{WatchPort: 1, Actions: []Action{Output(1)}},
		{WatchPort: 2, Actions: []Action{Output(2)}},
	}}
	deadPort1 := func(b *Bucket) bool { return b.WatchPort != 1 }
	for h := uint64(0); h < 100; h++ {
		b := g.SelectBucket(h, deadPort1)
		if b == nil || b.Actions[0].Port != 2 {
			t.Fatal("selection did not avoid dead bucket")
		}
	}
	allDead := func(*Bucket) bool { return false }
	if g.SelectBucket(0, allDead) != nil {
		t.Error("all-dead group should select nil")
	}
}

func TestGroupFastFailover(t *testing.T) {
	g := &Group{ID: 2, Type: GroupFastFailover, Buckets: []*Bucket{
		{WatchPort: 1, Actions: []Action{Output(1)}},
		{WatchPort: 2, Actions: []Action{Output(2)}},
	}}
	if b := g.SelectBucket(0, nil); b.Actions[0].Port != 1 {
		t.Error("FF should pick first live bucket")
	}
	dead1 := func(b *Bucket) bool { return b.WatchPort != 1 }
	if b := g.SelectBucket(0, dead1); b.Actions[0].Port != 2 {
		t.Error("FF should fail over to second bucket")
	}
}

func TestGroupSelectDeterministic(t *testing.T) {
	g := &Group{ID: 1, Type: GroupSelect, Buckets: []*Bucket{
		{Actions: []Action{Output(1)}},
		{Actions: []Action{Output(2)}},
		{Actions: []Action{Output(3)}},
	}}
	for h := uint64(0); h < 50; h++ {
		a := g.SelectBucket(h, nil)
		b := g.SelectBucket(h, nil)
		if a != b {
			t.Fatal("selection not deterministic")
		}
	}
}

func TestGroupTable(t *testing.T) {
	gt := NewGroupTable()
	if err := gt.Add(&Group{ID: 0}); err == nil {
		t.Error("group 0 must be rejected")
	}
	if err := gt.Add(&Group{ID: 5, Type: GroupSelect}); err != nil {
		t.Fatal(err)
	}
	if gt.Get(5) == nil || gt.Len() != 1 {
		t.Error("group not stored")
	}
	if !gt.Delete(5) || gt.Delete(5) {
		t.Error("delete semantics wrong")
	}
}

func TestMeterTable(t *testing.T) {
	mt := NewMeterTable()
	if err := mt.Add(&Meter{ID: 0, RateBps: 100}); err == nil {
		t.Error("meter 0 must be rejected")
	}
	if err := mt.Add(&Meter{ID: 1, RateBps: -5}); err == nil {
		t.Error("negative rate must be rejected")
	}
	if err := mt.Add(&Meter{ID: 1, RateBps: math.NaN()}); err == nil {
		t.Error("NaN rate must be rejected")
	}
	if err := mt.Add(&Meter{ID: 1, RateBps: 5e8}); err != nil {
		t.Fatal(err)
	}
	if m := mt.Get(1); m == nil || m.RateBps != 5e8 {
		t.Error("meter not stored")
	}
	if !mt.Delete(1) || mt.Delete(1) {
		t.Error("delete semantics wrong")
	}
}

func TestActionStrings(t *testing.T) {
	cases := map[string]Action{
		"output:3":          Output(3),
		"output:controller": ToController(),
		"output:flood":      Flood(),
		"drop":              Drop(),
		"group:7":           GroupAction(7),
		"set_vlan:100":      SetVLAN(100),
		"pop_vlan":          PopVLAN(),
	}
	for want, a := range cases {
		if got := a.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

func TestInstructionBuilders(t *testing.T) {
	in := Apply(Output(1)).WithMeter(3).WithGoto(2)
	if in.Meter != 3 || !in.HasGoto || in.GotoTable != 2 || len(in.Actions) != 1 {
		t.Errorf("builder chain produced %+v", in)
	}
}

// Property: Lookup always returns the max-priority matching entry.
func TestLookupMaxPriorityProperty(t *testing.T) {
	prop := func(ports [8]uint16, prios [8]uint8) bool {
		tb := NewFlowTable()
		for i := range ports {
			tb.Add(&FlowEntry{
				Priority: int(prios[i]),
				Match:    header.Match{}.WithDstPort(ports[i] % 4), // force overlaps
				Cookie:   uint64(i + 1),
			}, 0)
		}
		k := key(1)
		got := tb.Lookup(k)
		// Reference: brute-force scan.
		var best *FlowEntry
		for _, e := range tb.Entries() {
			if !e.Match.Matches(k) {
				continue
			}
			if best == nil || e.Priority > best.Priority {
				best = e
			}
		}
		if best == nil {
			return got == nil
		}
		return got != nil && got.Priority == best.Priority && got.Match.Matches(k)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkLookup100Rules(b *testing.B) {
	tb := NewFlowTable()
	for i := 0; i < 100; i++ {
		tb.Add(&FlowEntry{Priority: i, Match: header.Match{}.WithDstPort(uint16(i))}, 0)
	}
	k := key(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(k)
	}
}

// TestAddOrderMatchesStableSort drives a table with random adds (many of
// them same-priority, some replacing an existing priority+match), strict
// and non-strict deletes and expiries, and checks after every step that
// Entries() is what re-sorting the survivors would give — priority
// descending, first-installed first, a replacement keeping its
// predecessor's place — and that Lookup agrees with a linear scan of it.
func TestAddOrderMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := NewFlowTable()
		var oracle []*FlowEntry // install order; replacements in place
		matches := []header.Match{
			header.MatchAll,
			header.Match{}.WithDstPort(80),
			header.Match{}.WithDstPort(443),
			header.Match{}.WithEthDst(header.MACFromUint64(2)),
			header.Match{}.WithEthDst(header.MACFromUint64(2)).WithDstPort(80),
			header.Match{}.WithEthDst(header.MACFromUint64(3)),
		}
		for step := 0; step < 300; step++ {
			now := simtime.Time(step) * simtime.Time(simtime.Millisecond)
			switch op := rng.Intn(10); {
			case op < 6:
				e := &FlowEntry{Priority: rng.Intn(4), Match: matches[rng.Intn(len(matches))], Cookie: uint64(step)}
				if rng.Intn(4) == 0 {
					e.HardTimeout = simtime.Duration(1+rng.Intn(50)) * simtime.Millisecond
				}
				tb.Add(e, now)
				replaced := false
				for i, old := range oracle {
					if old.Priority == e.Priority && old.Match == e.Match {
						oracle[i], replaced = e, true
					}
				}
				if !replaced {
					oracle = append(oracle, e)
				}
			case op < 7:
				m := matches[rng.Intn(len(matches))]
				tb.Delete(m, 0)
				oracle = slices.DeleteFunc(oracle, func(e *FlowEntry) bool { return m.Subsumes(e.Match) })
			case op < 8:
				m, prio := matches[rng.Intn(len(matches))], rng.Intn(4)
				tb.DeleteStrict(m, prio)
				oracle = slices.DeleteFunc(oracle, func(e *FlowEntry) bool { return e.Priority == prio && e.Match == m })
			default:
				tb.Expire(now)
				oracle = slices.DeleteFunc(oracle, func(e *FlowEntry) bool { return e.Expired(now) })
			}
			want := slices.Clone(oracle)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Priority > want[j].Priority })
			if !slices.Equal(tb.Entries(), want) {
				t.Fatalf("seed %d step %d: Entries() order diverged from the stable-sort oracle\n got %v\nwant %v",
					seed, step, tb.Entries(), want)
			}
			k := key(uint16([]int{80, 443, 22}[rng.Intn(3)]))
			k.EthDst = header.MACFromUint64(uint64(2 + rng.Intn(2)))
			var hit *FlowEntry
			for _, e := range want {
				if e.Match.Matches(k) {
					hit = e
					break
				}
			}
			if got := tb.Lookup(k); got != hit {
				t.Fatalf("seed %d step %d: Lookup = %v, linear scan = %v", seed, step, got, hit)
			}
		}
	}
}
