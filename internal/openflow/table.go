package openflow

import (
	"fmt"

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
	Packets   uint64
	Bytes     uint64
	FlowCount uint64 // number of distinct data flows that matched

	Installed simtime.Time
	LastUsed  simtime.Time

	seq uint64 // insertion order, for deterministic tie-break
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
	// exactly are bucketed by address; everything else stays in rest.
	// Both byDst buckets and rest preserve (priority desc, seq asc)
	// order, and Lookup merges the two streams.
	byDst map[header.MAC][]*FlowEntry
	rest  []*FlowEntry
}

// NewFlowTable returns an empty table.
func NewFlowTable() *FlowTable { return &FlowTable{byDst: make(map[header.MAC][]*FlowEntry)} }

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

func (t *FlowTable) indexAdd(e *FlowEntry) {
	if e.Match.Has(header.FieldEthDst) {
		t.byDst[e.Match.EthDst] = insertSorted(t.byDst[e.Match.EthDst], e)
	} else {
		t.rest = insertSorted(t.rest, e)
	}
}

// rebuildIndex reconstructs the acceleration structures from entries; used
// after bulk mutations (Delete, Expire).
func (t *FlowTable) rebuildIndex() {
	t.byDst = make(map[header.MAC][]*FlowEntry)
	t.rest = nil
	for _, e := range t.entries {
		t.indexAdd(e)
	}
}

func (t *FlowTable) indexRemove(e *FlowEntry) {
	remove := func(list []*FlowEntry) []*FlowEntry {
		for i, x := range list {
			if x == e {
				return append(list[:i], list[i+1:]...)
			}
		}
		return list
	}
	if e.Match.Has(header.FieldEthDst) {
		t.byDst[e.Match.EthDst] = remove(t.byDst[e.Match.EthDst])
	} else {
		t.rest = remove(t.rest)
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
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			e.seq = old.seq
			t.entries[i] = e
			t.indexRemove(old)
			t.indexAdd(e)
			return
		}
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
	// Merge the per-destination bucket with the rest list in priority
	// order, returning the first match encountered.
	bucket := t.byDst[key.EthDst]
	rest := t.rest
	for len(bucket) > 0 || len(rest) > 0 {
		var e *FlowEntry
		switch {
		case len(bucket) == 0:
			e, rest = rest[0], rest[1:]
		case len(rest) == 0:
			e, bucket = bucket[0], bucket[1:]
		case entryLess(bucket[0], rest[0]):
			e, bucket = bucket[0], bucket[1:]
		default:
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
	var kept, removed []*FlowEntry
	for _, e := range t.entries {
		if m.Subsumes(e.Match) && (cookie == 0 || e.Cookie == cookie) {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	if removed != nil {
		t.rebuildIndex()
	}
	return removed
}

// DeleteStrict removes the single entry with exactly this match and
// priority, returning it (or nil).
func (t *FlowTable) DeleteStrict(m header.Match, priority int) *FlowEntry {
	for i, e := range t.entries {
		if e.Priority == priority && e.Match == m {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			t.indexRemove(e)
			return e
		}
	}
	return nil
}

// Expire removes and returns all entries expired at time now.
func (t *FlowTable) Expire(now simtime.Time) []*FlowEntry {
	var kept, removed []*FlowEntry
	for _, e := range t.entries {
		if e.Expired(now) {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	t.entries = kept
	if removed != nil {
		t.rebuildIndex()
	}
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
