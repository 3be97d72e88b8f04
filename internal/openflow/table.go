package openflow

import (
	"fmt"
	"slices"
	"sort"

	"horse/internal/header"
	"horse/internal/simtime"
)

// FlowEntry is one rule in a flow table. Counters are maintained by the
// data plane as flows traverse the entry.
type FlowEntry struct {
	Priority int
	Match    header.Match
	Instr    Instructions

	// IdleTimeout evicts the entry after that long without a matching
	// flow; HardTimeout evicts unconditionally after install. Zero means
	// no timeout.
	IdleTimeout simtime.Duration
	HardTimeout simtime.Duration

	// Cookie is an opaque controller-chosen tag, useful for bulk deletes.
	Cookie uint64

	// Counters.
	Packets uint64
	Bytes   uint64

	Installed simtime.Time
	LastUsed  simtime.Time

	seq uint64 // insertion order, for deterministic tie-break
	// nextDst chains the entries of one exact EthDst in match order (see
	// FlowTable.byDst).
	nextDst *FlowEntry
}

// ExpiresAt returns the earliest instant at which the entry must be
// re-examined for expiry, or simtime.Never if it has no timeouts.
func (e *FlowEntry) ExpiresAt() simtime.Time {
	t := simtime.Never
	if e.HardTimeout > 0 {
		t = e.Installed.Add(e.HardTimeout)
	}
	if e.IdleTimeout > 0 {
		idle := e.LastUsed.Add(e.IdleTimeout)
		if idle < t {
			t = idle
		}
	}
	return t
}

// Expired reports whether the entry should be evicted at time now.
func (e *FlowEntry) Expired(now simtime.Time) bool {
	if e.HardTimeout > 0 && now >= e.Installed.Add(e.HardTimeout) {
		return true
	}
	if e.IdleTimeout > 0 && now >= e.LastUsed.Add(e.IdleTimeout) {
		return true
	}
	return false
}

func (e *FlowEntry) String() string {
	return fmt.Sprintf("prio=%d match=[%s] actions=%v", e.Priority, e.Match, e.Instr.Actions)
}

// FlowTable is a single OpenFlow table: a priority-ordered rule list with
// wildcard matching. Lookup is linear over entries in (priority desc,
// insertion asc) order — the reference semantics; the simulator's flow-level
// abstraction keeps tables small enough that this is not the bottleneck,
// and correctness under arbitrary wildcards is what matters.
type FlowTable struct {
	entries []*FlowEntry
	nextSeq uint64

	// Lookup acceleration: the dominant rule shape at scale is an exact
	// match on EthDst (MAC forwarding), so entries constraining EthDst
	// exactly are chained by address through FlowEntry.nextDst, byDst
	// holding each chain's head; everything else stays in rest. Chains
	// and rest both keep (priority desc, seq asc) order, and Lookup
	// merges the two streams. The map is made on the first chained entry:
	// most tables of most switches never hold one.
	byDst map[header.MAC]*FlowEntry
	rest  []*FlowEntry
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{} }

func entryLess(a, b *FlowEntry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

func insertSorted(list []*FlowEntry, e *FlowEntry) []*FlowEntry {
	pos := len(list)
	for pos > 0 && entryLess(e, list[pos-1]) {
		pos--
	}
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = e
	return list
}

// find returns e's place in its destination's chain: the entry before
// it (nil at the head) and the entry at that place — e itself if it is
// chained, else the one it would go before. Only for an exact EthDst.
func (t *FlowTable) find(e *FlowEntry) (prev, at *FlowEntry) {
	at = t.byDst[e.Match.EthDst]
	for at != nil && at != e && entryLess(at, e) {
		prev, at = at, at.nextDst
	}
	return prev, at
}

// relink points the link after prev (the chain's head for a nil prev)
// at x; an empty chain leaves the map.
func (t *FlowTable) relink(dst header.MAC, prev, x *FlowEntry) {
	switch {
	case prev != nil:
		prev.nextDst = x
	case x != nil:
		if t.byDst == nil {
			t.byDst = make(map[header.MAC]*FlowEntry)
		}
		t.byDst[dst] = x
	default:
		delete(t.byDst, dst)
	}
}

func (t *FlowTable) indexAdd(e *FlowEntry) {
	if !e.Match.Has(header.FieldEthDst) {
		t.rest = insertSorted(t.rest, e)
		return
	}
	prev, at := t.find(e)
	e.nextDst = at
	t.relink(e.Match.EthDst, prev, e)
}

// exact returns the entry with exactly this match and priority, looking
// in its destination chain or in rest only.
func (t *FlowTable) exact(m header.Match, priority int) *FlowEntry {
	if m.Has(header.FieldEthDst) {
		for e := t.byDst[m.EthDst]; e != nil; e = e.nextDst {
			if e.Priority == priority && e.Match == m {
				return e
			}
		}
		return nil
	}
	for _, e := range t.rest {
		if e.Priority == priority && e.Match == m {
			return e
		}
	}
	return nil
}

// position returns e's index in entries, which entryLess orders.
func (t *FlowTable) position(e *FlowEntry) int {
	return sort.Search(len(t.entries), func(i int) bool { return !entryLess(t.entries[i], e) })
}

// indexReplace puts e where old is in old's chain or in rest; old
// leaves the index.
func (t *FlowTable) indexReplace(old, e *FlowEntry) {
	if !old.Match.Has(header.FieldEthDst) {
		t.rest[slices.Index(t.rest, old)] = e
		return
	}
	prev, _ := t.find(old)
	next := old.nextDst
	old.nextDst = nil
	e.nextDst = next
	t.relink(old.Match.EthDst, prev, e)
}

func (t *FlowTable) indexRemove(e *FlowEntry) {
	if !e.Match.Has(header.FieldEthDst) {
		if i := slices.Index(t.rest, e); i >= 0 {
			t.rest = slices.Delete(t.rest, i, i+1)
		}
		return
	}
	if prev, at := t.find(e); at == e {
		t.relink(e.Match.EthDst, prev, e.nextDst)
		e.nextDst = nil
	}
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return len(t.entries) }

// Entries returns the entries in match order. The slice is shared; treat it
// as read-only.
func (t *FlowTable) Entries() []*FlowEntry { return t.entries }

// Add installs an entry. Per OpenFlow semantics, an existing entry with the
// same priority and identical match is replaced (its counters reset).
func (t *FlowTable) Add(e *FlowEntry, now simtime.Time) {
	e.Installed = now
	e.LastUsed = now
	if old := t.exact(e.Match, e.Priority); old != nil {
		// The new entry takes over the old one's (priority, seq) position
		// in both orders.
		e.seq = old.seq
		t.indexReplace(old, e)
		t.entries[t.position(old)] = e
		return
	}
	t.nextSeq++
	e.seq = t.nextSeq
	t.entries = insertSorted(t.entries, e)
	t.indexAdd(e)
}

// Lookup returns the highest-priority entry matching the key, or nil for a
// table miss. It does not update entry counters — the data plane owns
// those because a "packet count" at flow granularity depends on flow
// volume.
func (t *FlowTable) Lookup(key header.FlowKey) *FlowEntry {
	// Merge the destination's chain with the rest list in priority
	// order, returning the first match encountered.
	chain := t.byDst[key.EthDst]
	rest := t.rest
	for chain != nil || len(rest) > 0 {
		var e *FlowEntry
		if chain != nil && (len(rest) == 0 || entryLess(chain, rest[0])) {
			e, chain = chain, chain.nextDst
		} else {
			e, rest = rest[0], rest[1:]
		}
		if e.Match.Matches(key) {
			return e
		}
	}
	return nil
}

// Delete removes entries per OpenFlow non-strict semantics: every entry
// whose match is subsumed by m (and whose cookie matches cookieMask
// semantics — here, cookie==0 matches all) is removed. It returns the
// removed entries.
func (t *FlowTable) Delete(m header.Match, cookie uint64) []*FlowEntry {
	return t.removeIf(func(e *FlowEntry) bool {
		return m.Subsumes(e.Match) && (cookie == 0 || e.Cookie == cookie)
	})
}

// DeleteStrict removes the single entry with exactly this match and
// priority, returning it (or nil).
func (t *FlowTable) DeleteStrict(m header.Match, priority int) *FlowEntry {
	e := t.exact(m, priority)
	if e != nil {
		i := t.position(e)
		t.entries = slices.Delete(t.entries, i, i+1)
		t.indexRemove(e)
	}
	return e
}

// Expire removes and returns all entries expired at time now.
func (t *FlowTable) Expire(now simtime.Time) []*FlowEntry {
	return t.removeIf(func(e *FlowEntry) bool { return e.Expired(now) })
}

// removeIf filters the entries gone reports in place, keeping match order,
// unindexes just those, and returns them in match order.
func (t *FlowTable) removeIf(gone func(*FlowEntry) bool) []*FlowEntry {
	var removed []*FlowEntry
	kept := t.entries[:0]
	for _, e := range t.entries {
		if gone(e) {
			removed = append(removed, e)
			t.indexRemove(e)
		} else {
			kept = append(kept, e)
		}
	}
	clear(t.entries[len(kept):])
	t.entries = kept
	return removed
}

// NextExpiry returns the earliest ExpiresAt over all entries, or
// simtime.Never for a table with no timeouts.
func (t *FlowTable) NextExpiry() simtime.Time {
	min := simtime.Never
	for _, e := range t.entries {
		if x := e.ExpiresAt(); x < min {
			min = x
		}
	}
	return min
}
