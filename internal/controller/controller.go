// Package controller implements the control plane of Horse: the
// lightweight, modular "policy generator" of the paper. A Chain composes
// independent applications — forwarding, load balancing, blackholing, rate
// limiting, application-specific peering, source routing, monitoring —
// each of which translates its slice of the high-level policy into
// (abstracted) OpenFlow instructions.
//
// Pipeline convention shared by all apps:
//
//	table 0 — policy table: blackhole drops, rate-limit meters,
//	          app-peering and source-routing overrides; a default
//	          MatchAll → goto(1) entry is installed by forwarding apps.
//	table 1 — forwarding table: MAC-destination rules or ECMP groups.
//
// Apps that install overrides use table 0 at priorities above the default;
// apps that forward use table 1 — at most one forwarding app per Chain
// (two would fight over the same rules, and over the reconvergence flush).
// This is what lets "applications such as load balancing and blackholing
// coexist" (Figure 1) without rule cross-products.
package controller

import (
	"horse/internal/flowsim"
	"horse/internal/header"
	"horse/internal/openflow"
)

// Table assignments (see package comment).
const (
	TablePolicy     openflow.TableID = 0
	TableForwarding openflow.TableID = 1
)

// Priorities within tables. Order matters: blackholing beats peering beats
// rate limiting beats the goto default.
const (
	PrioBlackhole = 400
	PrioSourceRt  = 300
	PrioPeering   = 200
	PrioRateLimit = 100
	PrioDefault   = 0

	PrioForwarding = 10
)

// App is one modular controller application.
type App interface {
	flowsim.Controller
	// Name identifies the app in logs and validation reports.
	Name() string
}

// Chain composes apps into a single flowsim.Controller. Start and Handle
// run the apps in order.
type Chain struct {
	Apps []App
}

// NewChain builds a controller from apps.
func NewChain(apps ...App) *Chain { return &Chain{Apps: apps} }

// Start implements flowsim.Controller.
func (c *Chain) Start(ctx *flowsim.Context) {
	for _, a := range c.Apps {
		a.Start(ctx)
	}
}

// Handle implements flowsim.Controller.
func (c *Chain) Handle(ctx *flowsim.Context, msg openflow.Message) {
	for _, a := range c.Apps {
		a.Handle(ctx, msg)
	}
}

// InstallPolicyDefaults installs the table-0 MatchAll→goto(forwarding)
// entry on every switch. Forwarding apps call it from Start; it is
// idempotent (re-adding replaces the identical entry).
func InstallPolicyDefaults(ctx *flowsim.Context) {
	for _, sw := range ctx.Topology().Switches() {
		ctx.Send(&openflow.FlowMod{
			Switch: sw, Op: openflow.FlowAdd,
			Table: TablePolicy, Priority: PrioDefault,
			Match: header.MatchAll,
			Instr: openflow.Instructions{}.WithGoto(TableForwarding),
		})
	}
}

// portStatusCoalescer debounces an app's PortStatus reaction: one
// topology event produces a PortStatus from each live endpoint switch at
// the same instant, so Kick schedules the app's reaction once via
// After(0) — which fires after the remaining same-instant deliveries —
// instead of once per message. Forwarding apps react with defaults +
// flush + reinstall; policy apps re-run their idempotent installs (a
// restarted switch comes back with every table empty, so everything that
// programs switches must re-program on topology events).
//
// The forwarding reaction flushes the whole forwarding table, so a Chain
// must compose at most ONE forwarding (table-1-writing) app — the package
// convention anyway: stacked forwarding apps would overwrite each other's
// rules on install, and here the second app's flush would delete the
// first's reinstalls. Policy apps add-replace into table 0 and do not
// flush, so any number coexist.
type portStatusCoalescer struct {
	pending bool
}

// Kick schedules react for this instant if msg is a PortStatus and no
// reaction is already scheduled.
func (c *portStatusCoalescer) Kick(ctx *flowsim.Context, msg openflow.Message, react func()) {
	if _, ok := msg.(*openflow.PortStatus); !ok || c.pending {
		return
	}
	c.pending = true
	ctx.After(0, func() {
		c.pending = false
		react()
	})
}

// FlushForwarding deletes every forwarding-table rule on every switch —
// the reconvergence-safe first half of a topology-change reaction: flush,
// then recompute, so no stale rule pointing at a dead port (or at a
// destination that became unreachable) survives the event. Deletes and the
// reinstalls that follow share one control-latency instant, so the data
// plane never observes a half-flushed table.
func FlushForwarding(ctx *flowsim.Context) {
	for _, sw := range ctx.Topology().Switches() {
		ctx.Send(&openflow.FlowMod{
			Switch: sw, Op: openflow.FlowDelete,
			Table: TableForwarding, Match: header.MatchAll,
		})
	}
}
