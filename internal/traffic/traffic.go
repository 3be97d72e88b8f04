// Package traffic generates the data-traffic events that feed the Horse
// data plane. Following the paper, data flows "can be set in the form of a
// traffic matrix, or can be generated by the simulator itself": this
// package provides both — traffic-matrix replay with diurnal modulation
// (the IXP evaluation workload) and stochastic generators (Poisson
// arrivals with heavy-tailed sizes) — plus CSV trace reading/writing.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"horse/internal/addr"
	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
)

// Demand is one data-flow input event for the simulator.
type Demand struct {
	Key      header.FlowKey
	Src, Dst netgraph.NodeID
	Start    simtime.Time
	// SizeBits is the transfer volume. math.Inf(1) with Duration set
	// means a constant-rate flow that lasts Duration.
	SizeBits float64
	// RateBps is the application's offered rate: the peak rate of a CBR
	// flow, or math.Inf(1) for a backlogged TCP transfer.
	RateBps float64
	// Duration bounds open-ended (infinite-size) flows.
	Duration simtime.Duration
	// TCP selects the TCP model (slow start + loss response) rather than
	// fluid CBR.
	TCP bool
}

// Trace is a set of demands ordered by start time.
type Trace []Demand

// Sort orders the trace by start time (stable, so generation order breaks
// ties deterministically). An already-sorted trace is left as is: a
// stable sort of sorted input is the identity.
func (tr Trace) Sort() {
	if !tr.Sorted() {
		sort.SliceStable(tr, func(i, j int) bool { return tr[i].Start < tr[j].Start })
	}
}

// Sorted reports whether the trace's start times are nondecreasing.
func (tr Trace) Sorted() bool {
	for i := 1; i < len(tr); i++ {
		if tr[i].Start < tr[i-1].Start {
			return false
		}
	}
	return true
}

// TotalBits sums the finite flow volumes in the trace.
func (tr Trace) TotalBits() float64 {
	var s float64
	for _, d := range tr {
		if !math.IsInf(d.SizeBits, 1) {
			s += d.SizeBits
		}
	}
	return s
}

// SizeDist draws flow sizes in bits.
type SizeDist interface {
	Sample(rng *rand.Rand) float64
}

// FixedSize always returns the same size.
type FixedSize float64

// Sample implements SizeDist.
func (f FixedSize) Sample(*rand.Rand) float64 { return float64(f) }

// Pareto is the canonical heavy-tailed flow-size distribution observed in
// wide-area and IXP traffic: many mice, a few elephants carrying most
// bytes.
type Pareto struct {
	// XMin is the minimum size (bits).
	XMin float64
	// Alpha is the tail exponent; 1 < Alpha < 2 gives the classic
	// infinite-variance heavy tail.
	Alpha float64
}

// Sample implements SizeDist by inverse transform.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return p.XMin / math.Pow(u, 1/p.Alpha)
}

// LogNormal flow sizes, the other common empirical fit.
type LogNormal struct {
	// Mu and Sigma parameterize the underlying normal of ln(size).
	Mu, Sigma float64
}

// Sample implements SizeDist.
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Generator produces stochastic traffic. It is deterministic for a given
// seed.
type Generator struct {
	rng      *rand.Rand
	nextPort uint16
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), nextPort: 10000}
}

func (g *Generator) srcPort() uint16 {
	g.nextPort++
	if g.nextPort < 10000 {
		g.nextPort = 10000
	}
	return g.nextPort
}

// PoissonConfig parameterizes PoissonArrivals.
type PoissonConfig struct {
	// Hosts are the candidate endpoints; flows pick distinct src/dst
	// uniformly.
	Hosts []netgraph.NodeID
	// Lambda is the arrival rate in flows/second.
	Lambda float64
	// Horizon bounds arrival times.
	Horizon simtime.Duration
	// Sizes draws flow volumes.
	Sizes SizeDist
	// TCPFraction of flows use the TCP model; the rest are CBR at
	// CBRRateBps.
	TCPFraction float64
	CBRRateBps  float64
	// DstPorts, if non-empty, is sampled uniformly for the destination
	// port (defaults to 80).
	DstPorts []uint16
}

// PoissonArrivals generates a trace of flows with exponential inter-arrival
// times. This is the high-churn workload for scalability experiments.
func (g *Generator) PoissonArrivals(cfg PoissonConfig) Trace {
	if len(cfg.Hosts) < 2 || cfg.Lambda <= 0 || cfg.Horizon <= 0 {
		return nil
	}
	// Room for the expected count plus four standard deviations, so the
	// slice almost never regrows.
	n := min(cfg.Lambda*cfg.Horizon.Seconds(), 1<<24)
	tr := make(Trace, 0, int(n+4*math.Sqrt(n))+1)
	t := simtime.Time(0)
	for {
		d, ok := g.nextPoisson(cfg, &t)
		if !ok {
			break
		}
		tr = append(tr, d)
	}
	tr.Sort()
	return tr
}

// nextPoisson draws one arrival, advancing *t. The rng consumption order
// here is the determinism contract shared by PoissonArrivals and
// NewPoissonReader: both produce byte-identical sequences for a seed.
func (g *Generator) nextPoisson(cfg PoissonConfig, t *simtime.Time) (Demand, bool) {
	gap := simtime.FromSeconds(g.rng.ExpFloat64() / cfg.Lambda)
	*t = t.Add(gap)
	if *t > simtime.Time(cfg.Horizon) {
		return Demand{}, false
	}
	src := cfg.Hosts[g.rng.Intn(len(cfg.Hosts))]
	dst := cfg.Hosts[g.rng.Intn(len(cfg.Hosts))]
	for dst == src {
		dst = cfg.Hosts[g.rng.Intn(len(cfg.Hosts))]
	}
	dstPort := header.PortHTTP
	if len(cfg.DstPorts) > 0 {
		dstPort = cfg.DstPorts[g.rng.Intn(len(cfg.DstPorts))]
	}
	size := cfg.Sizes.Sample(g.rng)
	d := Demand{
		Key:      addr.FlowKeyBetween(src, dst, header.ProtoTCP, g.srcPort(), dstPort),
		Src:      src,
		Dst:      dst,
		Start:    *t,
		SizeBits: size,
		RateBps:  math.Inf(1),
		TCP:      true,
	}
	if g.rng.Float64() >= cfg.TCPFraction {
		d.TCP = false
		d.RateBps = cfg.CBRRateBps
		d.Key.Proto = header.ProtoUDP
	}
	return d, true
}

// Matrix is a traffic matrix: Rates[i][j] is the offered rate in
// bits/second from Hosts[i] to Hosts[j].
type Matrix struct {
	Hosts []netgraph.NodeID
	Rates [][]float64
}

// NewMatrix allocates a zero matrix over the given hosts.
func NewMatrix(hosts []netgraph.NodeID) *Matrix {
	r := make([][]float64, len(hosts))
	for i := range r {
		r[i] = make([]float64, len(hosts))
	}
	return &Matrix{Hosts: append([]netgraph.NodeID(nil), hosts...), Rates: r}
}

// Total returns the sum of all entries.
func (m *Matrix) Total() float64 {
	var s float64
	for _, row := range m.Rates {
		for _, v := range row {
			s += v
		}
	}
	return s
}

// Gravity fills the matrix with a gravity model: rate(i→j) ∝ w[i]·w[j],
// scaled so the matrix total equals totalBps. Diagonal entries stay zero.
// Published IXP studies consistently find member-to-member traffic well
// approximated by gravity on member "masses" (port capacities / volumes).
func Gravity(hosts []netgraph.NodeID, weights []float64, totalBps float64) *Matrix {
	if len(hosts) != len(weights) {
		panic(fmt.Sprintf("traffic: %d hosts but %d weights", len(hosts), len(weights)))
	}
	m := NewMatrix(hosts)
	var norm float64
	for i := range hosts {
		for j := range hosts {
			if i != j {
				norm += weights[i] * weights[j]
			}
		}
	}
	if norm == 0 {
		return m
	}
	for i := range hosts {
		for j := range hosts {
			if i != j {
				m.Rates[i][j] = totalBps * weights[i] * weights[j] / norm
			}
		}
	}
	return m
}

// ParetoWeights draws n member weights from a Pareto distribution — a few
// heavy hitters, many small members, as in real IXP member mixes.
func ParetoWeights(n int, alpha float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := Pareto{XMin: 1, Alpha: alpha}
	w := make([]float64, n)
	for i := range w {
		w[i] = p.Sample(rng)
	}
	return w
}

// Diurnal is a time-of-day modulation: multiplier(t) = Base +
// Amplitude·sin(2π·(t-Phase)/Period), clamped at ≥ 0. A typical IXP curve
// has Base 1, Amplitude 0.5, Period 24h.
type Diurnal struct {
	Base      float64
	Amplitude float64
	Period    simtime.Duration
	Phase     simtime.Duration
}

// At returns the multiplier at time t.
func (d Diurnal) At(t simtime.Time) float64 {
	if d.Period <= 0 {
		return d.Base
	}
	x := 2 * math.Pi * float64(t-simtime.Time(d.Phase)) / float64(d.Period)
	v := d.Base + d.Amplitude*math.Sin(x)
	if v < 0 {
		return 0
	}
	return v
}

// Flat is the identity modulation.
var Flat = Diurnal{Base: 1}

// ReplayConfig parameterizes matrix replay.
type ReplayConfig struct {
	// Epoch is the re-evaluation period: each epoch, every nonzero matrix
	// entry becomes one CBR flow at the modulated rate for that epoch.
	Epoch simtime.Duration
	// Horizon is the replay length.
	Horizon simtime.Duration
	// Mod modulates entry rates over time (Flat for none).
	Mod Diurnal
	// MinRateBps drops epoch flows below this rate (keeps tiny entries
	// from exploding the event count). Zero keeps everything.
	MinRateBps float64
	// DstPort tags replay flows (defaults to 80).
	DstPort uint16
}

// Replay converts a traffic matrix into a trace of epoch CBR flows, the
// "replaying its behavior over time" evaluation of the paper.
func (g *Generator) Replay(m *Matrix, cfg ReplayConfig) Trace {
	if cfg.Epoch <= 0 || cfg.Horizon <= 0 {
		return nil
	}
	dstPort := cfg.DstPort
	if dstPort == 0 {
		dstPort = header.PortHTTP
	}
	// epochFlows calls fn for every epoch flow, in start order.
	epochFlows := func(fn func(start simtime.Time, i, j int, rate float64)) {
		for start := simtime.Time(0); start < simtime.Time(cfg.Horizon); start = start.Add(cfg.Epoch) {
			mult := cfg.Mod.At(start)
			for i := range m.Hosts {
				for j := range m.Hosts {
					rate := m.Rates[i][j] * mult
					if rate <= 0 || rate < cfg.MinRateBps {
						continue
					}
					fn(start, i, j, rate)
				}
			}
		}
	}
	n := 0
	epochFlows(func(simtime.Time, int, int, float64) { n++ })
	tr := make(Trace, 0, n)
	epochFlows(func(start simtime.Time, i, j int, rate float64) {
		src, dst := m.Hosts[i], m.Hosts[j]
		tr = append(tr, Demand{
			Key:      addr.FlowKeyBetween(src, dst, header.ProtoTCP, g.srcPort(), dstPort),
			Src:      src,
			Dst:      dst,
			Start:    start,
			SizeBits: math.Inf(1),
			RateBps:  rate,
			Duration: cfg.Epoch,
		})
	})
	tr.Sort()
	return tr
}
