package openflow

import (
	"fmt"

	"horse/internal/netgraph"
)

// GroupType discriminates group semantics, mirroring OpenFlow 1.3.
type GroupType uint8

// Group types.
const (
	// GroupAll executes every bucket (multicast). For flow-level
	// simulation this replicates the flow onto each bucket's output.
	GroupAll GroupType = iota
	// GroupSelect executes one bucket chosen by flow hash, weighted by
	// bucket weight — the load-balancing primitive.
	GroupSelect
	// GroupFastFailover executes the first bucket whose watch port is
	// live.
	GroupFastFailover
)

func (g GroupType) String() string {
	switch g {
	case GroupAll:
		return "all"
	case GroupSelect:
		return "select"
	case GroupFastFailover:
		return "ff"
	}
	return fmt.Sprintf("grouptype(%d)", uint8(g))
}

// Bucket is one action set within a group.
type Bucket struct {
	// Weight biases selection in GroupSelect groups; zero means 1.
	Weight uint32
	// WatchPort gates the bucket in GroupFastFailover groups: the bucket
	// is live iff the port's link is up. NoPort means always live.
	WatchPort netgraph.PortNum
	Actions   []Action

	// Counters.
	Packets uint64
	Bytes   uint64
}

func (b *Bucket) weight() uint64 {
	if b.Weight == 0 {
		return 1
	}
	return uint64(b.Weight)
}

// Group is a group-table entry.
type Group struct {
	ID      GroupID
	Type    GroupType
	Buckets []*Bucket

	// Counters.
	Packets uint64
	Bytes   uint64
}

// mix64 is a splitmix64-style finalizer. Flow-key hashes concentrate their
// entropy unevenly across bits (FNV parity is a linear function of the
// input), so bucket selection mixes before reducing modulo the weight sum.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SelectBucket picks the bucket for a flow with the given hash, consulting
// live to skip dead buckets (live may be nil, meaning all live). It returns
// nil when no live bucket exists. Selection is deterministic in the hash:
// weighted rendezvous over the bucket index, so bucket sets that differ only
// in dead buckets map flows consistently.
func (g *Group) SelectBucket(hash uint64, live func(*Bucket) bool) *Bucket {
	hash = mix64(hash)
	switch g.Type {
	case GroupSelect:
		var total uint64
		for _, b := range g.Buckets {
			if live == nil || live(b) {
				total += b.weight()
			}
		}
		if total == 0 {
			return nil
		}
		target := hash % total
		var acc uint64
		for _, b := range g.Buckets {
			if live != nil && !live(b) {
				continue
			}
			acc += b.weight()
			if target < acc {
				return b
			}
		}
		return nil
	case GroupFastFailover:
		for _, b := range g.Buckets {
			if live == nil || live(b) {
				return b
			}
		}
		return nil
	default: // GroupAll has no single selection
		return nil
	}
}

// GroupTable holds a switch's groups.
type GroupTable struct {
	groups map[GroupID]*Group // made on the first Add
}

// NewGroupTable returns an empty group table.
func NewGroupTable() *GroupTable { return &GroupTable{} }

// Add installs or replaces a group. Group ID 0 is reserved.
func (t *GroupTable) Add(g *Group) error {
	if g.ID == 0 {
		return fmt.Errorf("openflow: group id 0 is reserved")
	}
	if t.groups == nil {
		t.groups = make(map[GroupID]*Group)
	}
	t.groups[g.ID] = g
	return nil
}

// Get returns the group with the given ID, or nil.
func (t *GroupTable) Get(id GroupID) *Group { return t.groups[id] }

// Delete removes a group, reporting whether it existed.
func (t *GroupTable) Delete(id GroupID) bool {
	if _, ok := t.groups[id]; !ok {
		return false
	}
	delete(t.groups, id)
	return true
}

// Len returns the number of installed groups.
func (t *GroupTable) Len() int { return len(t.groups) }
