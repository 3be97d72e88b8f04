package openflow

import "fmt"

// Meter is a rate limiter. In the flow-level model a meter acts as a
// virtual bottleneck of RateBps shared by all flows currently passing
// through it: the bandwidth allocator treats it exactly like a link of that
// capacity, which reproduces policing behaviour (aggregate through the
// meter never exceeds the configured rate; excess demand is "dropped",
// which TCP-modeled flows additionally interpret as loss).
type Meter struct {
	ID      MeterID
	RateBps float64

	// Counters.
	ThrottledBps float64 // current aggregate demand beyond the rate (updated by the allocator)
	DroppedBits  float64 // cumulative bits policed away
}

// MeterTable holds a switch's meters.
type MeterTable struct {
	meters map[MeterID]*Meter // made on the first Add
}

// NewMeterTable returns an empty meter table.
func NewMeterTable() *MeterTable { return &MeterTable{} }

// Add installs or replaces a meter. Meter ID 0 is reserved.
func (t *MeterTable) Add(m *Meter) error {
	if m.ID == 0 {
		return fmt.Errorf("openflow: meter id 0 is reserved")
	}
	if m.RateBps <= 0 {
		return fmt.Errorf("openflow: meter %d has non-positive rate %g", m.ID, m.RateBps)
	}
	if t.meters == nil {
		t.meters = make(map[MeterID]*Meter)
	}
	t.meters[m.ID] = m
	return nil
}

// Get returns the meter with the given ID, or nil.
func (t *MeterTable) Get(id MeterID) *Meter { return t.meters[id] }

// Delete removes a meter, reporting whether it existed.
func (t *MeterTable) Delete(id MeterID) bool {
	if _, ok := t.meters[id]; !ok {
		return false
	}
	delete(t.meters, id)
	return true
}

// Len returns the number of installed meters.
func (t *MeterTable) Len() int { return len(t.meters) }
