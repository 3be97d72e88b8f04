// Package tcpmodel provides the flow-level TCP abstraction used by Horse.
// A packet-level simulator would evolve windows segment by segment; at flow
// granularity the flow engine keeps only what shapes throughput on
// simulation-relevant timescales, each bound expressed in bits/second:
//
//   - InitialRate, one initial window per RTT, is a TCP flow's first
//     offered demand;
//   - from there the flow engine's AIMD ramp (flowsim's handleRamp, once
//     per Params.RTT) doubles the demand while it binds, adds one MSS per
//     RTT after the first loss episode, and halves it when a policer
//     (meter) on the path is overdriven;
//   - MathisCap bounds the demand under the path loss of installed link
//     models: sustained TCP throughput under a frame-loss probability p is
//     at most MSS/RTT · C/√p (Mathis et al., CCR 1997).
//
// The max–min allocator turns the offered demands into realized rates.
package tcpmodel

import (
	"math"

	"horse/internal/simtime"
)

// Defaults mirroring common datacenter/IXP member values.
const (
	// DefaultMSS is the TCP maximum segment size in bytes.
	DefaultMSS = 1460
	// DefaultInitialWindow is the initial congestion window in segments
	// (RFC 6928).
	DefaultInitialWindow = 10
	// MathisConstant is the C in the Mathis throughput bound for
	// delayed-ACK Reno.
	MathisConstant = 1.22
)

// Params configures the TCP model for one flow (or a whole simulation).
type Params struct {
	// RTT is the round-trip time the window dynamics operate on.
	RTT simtime.Duration
	// MSS is the segment size in bytes.
	MSS int
	// InitialWindow is the slow-start initial window in segments.
	InitialWindow int
}

// DefaultParams returns parameters for a 10 ms RTT path.
func DefaultParams() Params {
	return Params{RTT: 10 * simtime.Millisecond, MSS: DefaultMSS, InitialWindow: DefaultInitialWindow}
}

func (p Params) rtt() float64 {
	if p.RTT <= 0 {
		return (10 * simtime.Millisecond).Seconds()
	}
	return p.RTT.Seconds()
}

func (p Params) mss() float64 {
	if p.MSS <= 0 {
		return DefaultMSS
	}
	return float64(p.MSS)
}

func (p Params) iw() float64 {
	if p.InitialWindow <= 0 {
		return DefaultInitialWindow
	}
	return float64(p.InitialWindow)
}

// InitialRate returns the sending rate of a fresh connection: one initial
// window per RTT, in bits/second.
func (p Params) InitialRate() float64 {
	return p.iw() * p.mss() * 8 / p.rtt()
}

// MathisCap returns the steady-state throughput bound (bits/second) under
// packet loss probability loss. Zero or negative loss means no bound
// (+Inf); loss ≥ 1 means the connection makes no progress.
func (p Params) MathisCap(loss float64) float64 {
	if loss <= 0 {
		return math.Inf(1)
	}
	if loss >= 1 {
		return 0
	}
	return p.mss() * 8 / p.rtt() * MathisConstant / math.Sqrt(loss)
}
