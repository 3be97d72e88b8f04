package openflow

import (
	"testing"

	"horse/internal/header"
	"horse/internal/simtime"
)

// FuzzFlowTable drives a table through random Add (new rules and
// replacements), Delete, DeleteStrict and Expire sequences over
// overlapping matches — rules with and without an exact EthDst, equal
// priorities — and after every step holds Lookup to a linear scan of
// Entries() in match order, on keys that hit every bucket.
func FuzzFlowTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 9, 2, 1, 1, 4, 3, 0, 5, 2})
	f.Add([]byte{0, 3, 1, 0, 3, 7, 0, 3, 5, 1, 0, 0, 0, 2, 0, 2, 4, 9, 1, 1})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23})
	f.Add([]byte{0, 255, 0, 254, 0, 253, 0, 252, 1, 0, 1, 1, 2, 0, 3, 3, 5, 60, 5, 60})
	f.Fuzz(func(t *testing.T, ops []byte) {
		tb := NewFlowTable()
		now := simtime.Time(0)
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for step := 0; len(ops) > 0; step++ {
			op, arg := next(), next()
			switch op % 6 {
			case 0: // a new rule, possibly with timeouts
				e := &FlowEntry{Priority: int(arg>>6) % 3, Match: fuzzMatch(arg), Cookie: uint64(arg % 3)}
				if arg&1 != 0 {
					e.IdleTimeout = simtime.Duration(1+arg%5) * simtime.Second
				}
				if arg&2 != 0 {
					e.HardTimeout = simtime.Duration(2+arg%7) * simtime.Second
				}
				tb.Add(e, now)
			case 1: // replace an installed rule: same match and priority
				if tb.Len() > 0 {
					old := tb.Entries()[int(arg)%tb.Len()]
					tb.Add(&FlowEntry{Priority: old.Priority, Match: old.Match}, now)
				}
			case 2:
				for _, e := range tb.Delete(fuzzMatch(arg), uint64(arg>>6)%3) {
					checkGone(t, tb, e)
				}
			case 3:
				if e := tb.DeleteStrict(fuzzMatch(arg), int(arg>>6)%3); e != nil {
					checkGone(t, tb, e)
				}
			case 4:
				now = now.Add(simtime.Duration(arg%8) * simtime.Second)
				for _, e := range tb.Expire(now) {
					checkGone(t, tb, e)
				}
			case 5: // a matched flow keeps a rule's idle timeout alive
				if tb.Len() > 0 {
					tb.Entries()[int(arg)%tb.Len()].LastUsed = now
				}
			}
			checkLookup(t, tb, step)
		}
	})
}

// fuzzMatch picks one of 18 overlapping matches: an exact EthDst (one of
// two) or none, a TCP requirement or none, and DstPort 80, 443 or none.
func fuzzMatch(b byte) header.Match {
	m := header.MatchAll
	switch b % 3 {
	case 1:
		m = m.WithEthDst(header.MACFromUint64(1))
	case 2:
		m = m.WithEthDst(header.MACFromUint64(2))
	}
	if b/3%2 == 1 {
		m = m.WithProto(header.ProtoTCP)
	}
	switch b / 6 % 3 {
	case 1:
		m = m.WithDstPort(80)
	case 2:
		m = m.WithDstPort(443)
	}
	return m
}

// checkLookup holds Lookup to the first entry of Entries() that matches,
// on every destination, protocol and port the matches name and one they
// do not, and checks Entries() is in strict match order.
func checkLookup(t *testing.T, tb *FlowTable, step int) {
	t.Helper()
	entries := tb.Entries()
	for i := 1; i < len(entries); i++ {
		if !entryLess(entries[i-1], entries[i]) {
			t.Fatalf("step %d: entries %d and %d out of match order", step, i-1, i)
		}
	}
	for dst := uint64(1); dst <= 3; dst++ {
		for _, proto := range []uint8{header.ProtoTCP, header.ProtoUDP} {
			for _, port := range []uint16{80, 443, 22} {
				k := header.FlowKey{EthDst: header.MACFromUint64(dst), Proto: proto, DstPort: port}
				var want *FlowEntry
				for _, e := range entries {
					if e.Match.Matches(k) {
						want = e
						break
					}
				}
				if got := tb.Lookup(k); got != want {
					t.Fatalf("step %d: Lookup(dst %d, proto %d, port %d) = %v, linear scan %v", step, dst, proto, port, got, want)
				}
			}
		}
	}
}

// checkGone fails if a removed entry is still installed.
func checkGone(t *testing.T, tb *FlowTable, e *FlowEntry) {
	t.Helper()
	for _, x := range tb.Entries() {
		if x == e {
			t.Fatalf("removed entry %v still installed", e)
		}
	}
}
