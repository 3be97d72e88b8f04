// Package simevent defines the observation surface shared by every Horse
// engine: the typed occurrences a running simulation reports to Observe
// hooks (applied topology and control-plane dynamics) and the progress
// reports a run lifecycle emits. It is a leaf package — engines, the
// scenario compiler, and the public façade all reference these types, so
// they live below all of them.
package simevent

import (
	"fmt"

	"horse/internal/netgraph"
	"horse/internal/simcore"
	"horse/internal/simtime"
)

// Kind discriminates observations.
type Kind uint8

// Observation kinds.
const (
	// LinkChange reports an applied link state flip (Up tells which way).
	LinkChange Kind = iota
	// SwitchChange reports an applied switch crash or restart.
	SwitchChange
	// ControllerChange reports the control channel detaching (Up=false)
	// or reattaching (Up=true).
	ControllerChange
	// LinkDegrade reports an applied link-model change: a degrade
	// installs a model (Up=false), a restore clears it (Up=true).
	LinkDegrade
)

func (k Kind) String() string {
	switch k {
	case LinkChange:
		return "link-change"
	case SwitchChange:
		return "switch-change"
	case ControllerChange:
		return "controller-change"
	case LinkDegrade:
		return "link-degrade"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Observation is one applied network-dynamics occurrence, delivered to
// every registered Observer at the virtual instant it took effect. Only
// real state flips are reported: a scripted "recovery" swallowed by a
// nested outage never observes.
type Observation struct {
	At   simtime.Time
	Kind Kind
	// Link is the subject of LinkChange observations.
	Link netgraph.LinkID
	// Switch is the subject of SwitchChange observations.
	Switch netgraph.NodeID
	// Up is the new state: link/switch up, or controller attached.
	Up bool
}

func (o Observation) String() string {
	switch o.Kind {
	case LinkChange:
		return fmt.Sprintf("%v link %d up=%v", o.At, o.Link, o.Up)
	case LinkDegrade:
		return fmt.Sprintf("%v link %d restored=%v", o.At, o.Link, o.Up)
	case SwitchChange:
		return fmt.Sprintf("%v switch %d up=%v", o.At, o.Switch, o.Up)
	default:
		return fmt.Sprintf("%v controller attached=%v", o.At, o.Up)
	}
}

// Observer receives observations. Observers run synchronously on the
// simulation goroutine: they may read engine state but must not mutate it
// or block.
type Observer func(Observation)

// Observers is an ordered multiplexer of observers. The zero value is
// empty and ready to use.
type Observers struct {
	fns []Observer
}

// Add registers an observer (nil is ignored). Registration order is
// notification order.
func (o *Observers) Add(fn Observer) {
	if fn != nil {
		o.fns = append(o.fns, fn)
	}
}

// Notify delivers obs to every registered observer.
func (o *Observers) Notify(obs Observation) {
	for _, fn := range o.fns {
		fn(obs)
	}
}

// Empty reports whether no observer is registered.
func (o *Observers) Empty() bool { return len(o.fns) == 0 }

// Progress is one progress report of a running engine, emitted from the
// kernel's pre-advance path, so all work at the reported instant has
// settled.
type Progress struct {
	// Now is the virtual time reached.
	Now simtime.Time
	// Events is the number of kernel events dispatched so far, across
	// every kernel the engine drives.
	Events uint64
}

// ProgressFunc receives progress reports. Like Observers, it runs on the
// simulation goroutine and must not mutate engine state or block.
type ProgressFunc func(Progress)

// ArmProgress registers a progress reporter on a kernel's pre-advance
// path: fn receives a Progress at most once per `every` of virtual time
// (the first report after the first period), with Events read from the
// kernel's dispatch counter. It is the one serial-path implementation
// behind every engine's SetProgress; no-op when every or fn is unset.
// Arm before the run.
func ArmProgress(k *simcore.Kernel, every simtime.Duration, fn ProgressFunc) {
	if every <= 0 || fn == nil {
		return
	}
	next := simtime.Time(every)
	k.AddPreAdvance(
		func() bool { return k.Now() >= next },
		func() {
			fn(Progress{Now: k.Now(), Events: k.Dispatched()})
			next = k.Now().Add(every)
		},
	)
}
