package fairshare

// byID drives an allocator by the caller's flow IDs, the way the oracle
// tests are written: it keeps the slot AddFlow returned for each ID, and
// adding an ID that is live replaces its flow.
type byID struct {
	*Allocator
	slots map[FlowID]int32
}

func newByID() *byID { return &byID{New(), map[FlowID]int32{}} }

func (b *byID) AddFlow(id FlowID, demand float64, route []ResourceID) {
	b.RemoveFlow(id)
	b.slots[id] = b.Allocator.AddFlow(id, demand, route)
}

func (b *byID) RemoveFlow(id FlowID) {
	if fi, ok := b.slots[id]; ok {
		delete(b.slots, id)
		b.Remove(fi)
	}
}

func (b *byID) SetDemand(id FlowID, demand float64) {
	if fi, ok := b.slots[id]; ok {
		b.Allocator.SetDemand(fi, demand)
	}
}

// Rate is the flow's rate, 0 for an ID not live.
func (b *byID) Rate(id FlowID) float64 {
	if fi, ok := b.slots[id]; ok {
		return b.Allocator.Rate(fi)
	}
	return 0
}

// Demand is the flow's demand, 0 for an ID not live.
func (b *byID) Demand(id FlowID) float64 {
	if fi, ok := b.slots[id]; ok {
		return b.flow(fi).demand
	}
	return 0
}

// NumFlows is the number of live slots.
func (b *byID) NumFlows() int {
	n := 0
	for fi := range b.nSlots {
		if b.flow(fi).live {
			n++
		}
	}
	return n
}

// Capacity is a resource's capacity, 0 if unknown.
func (b *byID) Capacity(r ResourceID) float64 {
	if k := b.lookup(r); k >= 0 {
		return b.res[k].capacity
	}
	return 0
}
