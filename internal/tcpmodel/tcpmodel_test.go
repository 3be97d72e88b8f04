package tcpmodel

import (
	"math"
	"testing"

	"horse/internal/simtime"
)

func TestInitialRate(t *testing.T) {
	p := Params{RTT: 10 * simtime.Millisecond, MSS: 1460, InitialWindow: 10}
	// 10 * 1460 * 8 bits per 10ms = 11.68 Mbps.
	want := 10.0 * 1460 * 8 / 0.010
	if got := p.InitialRate(); math.Abs(got-want) > 1 {
		t.Errorf("InitialRate = %g, want %g", got, want)
	}
}

func TestMathisCap(t *testing.T) {
	p := DefaultParams()
	if !math.IsInf(p.MathisCap(0), 1) {
		t.Error("no loss should mean no cap")
	}
	if p.MathisCap(1) != 0 {
		t.Error("total loss should mean zero throughput")
	}
	// Quadrupling loss halves throughput.
	c1, c4 := p.MathisCap(0.01), p.MathisCap(0.04)
	if math.Abs(c1/c4-2) > 1e-9 {
		t.Errorf("Mathis scaling wrong: %g vs %g", c1, c4)
	}
	// Known value: MSS=1460B, RTT=10ms, p=1%: 1460*8/0.01*1.22/0.1 ≈ 14.25 Mbps.
	want := 1460 * 8 / 0.010 * 1.22 / 0.1
	if got := p.MathisCap(0.01); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("MathisCap(1%%) = %g, want %g", got, want)
	}
}

func TestZeroValueParamsSafe(t *testing.T) {
	var p Params
	if p.InitialRate() <= 0 {
		t.Error("zero-value params should fall back to defaults")
	}
	if p.MathisCap(0.01) <= 0 {
		t.Error("zero-value MathisCap broken")
	}
}
