package stats

// InOrder re-sequences records that finalize out of order into index
// order: Put parks a record under its index until every lower index has
// been emitted, then emits the whole ready run. Parked records live in a
// dense ring that slides with the next expected index, so the buffer is
// as large as the widest gap between the oldest unfinished index and the
// newest finished one — near-empty when completion order tracks start
// order. Every engine delivers its records through one of these into its
// Collector (AddFlow), whether the run retains them or streams them.
type InOrder struct {
	emit func(FlowRecord)
	next int            // the index the window starts at
	head int            // ring position of next
	ring []parkedRecord // len is zero or a power of two
	n    int            // parked records
}

type parkedRecord struct {
	r  FlowRecord
	ok bool
}

// NewInOrder returns an emitter that hands records to emit in ascending
// index order, starting at index 0.
func NewInOrder(emit func(FlowRecord)) *InOrder { return &InOrder{emit: emit} }

// at returns the ring slot of index next+off (off < len(ring)).
func (o *InOrder) at(off int) *parkedRecord { return &o.ring[(o.head+off)&(len(o.ring)-1)] }

// Put delivers the record of index idx: emitted at once (with every
// parked successor it unblocks) when idx is the next expected index,
// parked otherwise. Each index may be put once.
func (o *InOrder) Put(idx int, r FlowRecord) {
	off := idx - o.next
	if off < 0 {
		panic("stats: InOrder index put twice or after it was skipped")
	}
	if off > 0 {
		if off >= len(o.ring) {
			o.grow(off)
		}
		*o.at(off) = parkedRecord{r, true}
		o.n++
		return
	}
	o.emit(r)
	o.advance()
	for o.n > 0 && o.at(0).ok {
		p := o.at(0)
		r, *p = p.r, parkedRecord{}
		o.n--
		o.emit(r)
		o.advance()
	}
}

// advance slides the window one index forward.
func (o *InOrder) advance() {
	o.next++
	if len(o.ring) > 0 {
		o.head = (o.head + 1) & (len(o.ring) - 1)
	}
}

// grow re-lays the ring out from head with room for offset off.
func (o *InOrder) grow(off int) {
	size := max(16, len(o.ring))
	for size <= off {
		size *= 2
	}
	grown := make([]parkedRecord, size)
	for i := range o.ring {
		grown[i] = *o.at(i)
	}
	o.ring, o.head = grown, 0
}

// Flush emits every parked record in ascending index order, skipping the
// indices that never produced one, and leaves the window empty past the
// last of them.
func (o *InOrder) Flush() {
	for o.n > 0 {
		if p := o.at(0); p.ok {
			r := p.r
			*p = parkedRecord{}
			o.n--
			o.emit(r)
		}
		o.advance()
	}
}
