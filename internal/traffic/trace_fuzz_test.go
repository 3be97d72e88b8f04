package traffic

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
)

// FuzzTraceRoundTrip fuzzes the CSV trace codec with the canonicalization
// property: any input ReadCSV accepts must survive a write→read→write
// round trip with the two writes byte-identical (WriteCSV output is a
// fixpoint of the codec), and the re-read trace must preserve the demand
// fields. Run the smoke pass with `make fuzz-smoke`; the seed corpus under
// testdata/fuzz is checked in.
func FuzzTraceRoundTrip(f *testing.F) {
	// Seeds: a generated trace with the interesting shapes (inf size, inf
	// rate, TCP, sub-second starts), a handcrafted minimal trace, and two
	// malformed inputs that must be rejected gracefully.
	seed := Trace{
		{
			Key: header.FlowKey{EthType: header.EthTypeIPv4, Proto: header.ProtoUDP, SrcPort: 40000, DstPort: 80},
			Src: 3, Dst: 7, Start: simtime.Time(1500 * simtime.Microsecond),
			SizeBits: 1e6, RateBps: 5e7,
		},
		{
			Key: header.FlowKey{EthType: header.EthTypeIPv4, Proto: header.ProtoTCP, SrcPort: 40001, DstPort: 443},
			Src: 1, Dst: 2, Start: 0,
			SizeBits: math.Inf(1), RateBps: math.Inf(1),
			Duration: 2 * simtime.Second, TCP: true,
		},
	}
	var buf bytes.Buffer
	if err := seed.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("start_s,src,dst,proto,src_port,dst_port,size_bits,rate_bps,duration_s,tcp\n0,0,1,17,1000,80,inf,inf,1.5,true\n"))
	f.Add([]byte("start_s,src,dst,proto,src_port,dst_port,size_bits,rate_bps,duration_s,tcp\n0,0,1,17,1000,80,1e6,notafloat,0,false\n"))
	f.Add([]byte("not,a,trace\n1,2,3\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return // rejected input: fine, as long as it doesn't panic
		}
		var out1 bytes.Buffer
		if err := tr.WriteCSV(&out1); err != nil {
			t.Fatalf("WriteCSV failed on accepted trace: %v", err)
		}
		tr2, err := ReadCSV(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written trace failed: %v\n%s", err, out1.String())
		}
		if len(tr2) != len(tr) {
			t.Fatalf("round trip changed length: %d -> %d", len(tr), len(tr2))
		}
		for i := range tr {
			a, b := tr[i], tr2[i]
			if a.Src != b.Src || a.Dst != b.Dst || a.Start != b.Start ||
				a.Duration != b.Duration || a.TCP != b.TCP || a.Key != b.Key {
				t.Fatalf("demand %d changed: %+v -> %+v", i, a, b)
			}
			if !floatEq(a.SizeBits, b.SizeBits) || !floatEq(a.RateBps, b.RateBps) {
				t.Fatalf("demand %d floats changed: size %g->%g rate %g->%g",
					i, a.SizeBits, b.SizeBits, a.RateBps, b.RateBps)
			}
		}
		var out2 bytes.Buffer
		if err := tr2.WriteCSV(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("WriteCSV is not a fixpoint:\n--- first ---\n%s\n--- second ---\n%s",
				out1.String(), out2.String())
		}
	})
}

// floatEq treats NaN as equal to itself (a NaN field must round-trip to
// NaN, which Go's == cannot express).
func floatEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// csvWriterOracle is WriteCSV as encoding/csv.Writer writes it, one
// formatted string per field: the reference FuzzWriteCSV holds the
// hand-built rows to.
func csvWriterOracle(tr Trace) []byte {
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	cw.Write(traceHeader[:])
	ff := func(v float64) string {
		if math.IsInf(v, 1) {
			return "inf"
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	for _, d := range tr {
		cw.Write([]string{
			strconv.FormatFloat(d.Start.Seconds(), 'g', -1, 64),
			strconv.Itoa(int(d.Src)),
			strconv.Itoa(int(d.Dst)),
			strconv.Itoa(int(d.Key.Proto)),
			strconv.Itoa(int(d.Key.SrcPort)),
			strconv.Itoa(int(d.Key.DstPort)),
			ff(d.SizeBits),
			ff(d.RateBps),
			strconv.FormatFloat(d.Duration.Seconds(), 'g', -1, 64),
			strconv.FormatBool(d.TCP),
		})
	}
	cw.Flush()
	return buf.Bytes()
}

// FuzzWriteCSV holds WriteCSV byte for byte to encoding/csv.Writer on
// arbitrary demands: every numeric form strconv can print (±Inf, NaN, −0,
// subnormals, exponents from 1e21 up) and every port and node ID. Run the
// smoke pass with `make fuzz-smoke`.
func FuzzWriteCSV(f *testing.F) {
	f.Add(int64(1500000), int32(3), int32(7), uint8(17), uint16(40000), uint16(80), 1e6, 5e7, int64(0), false)
	f.Add(int64(0), int32(0), int32(1), uint8(6), uint16(65535), uint16(65535), math.Inf(1), math.Inf(1), int64(2e9), true)
	f.Add(int64(-1), int32(-1), int32(math.MaxInt32), uint8(255), uint16(0), uint16(0), math.Inf(-1), math.NaN(), int64(-5), false)
	f.Add(int64(math.MaxInt64), int32(math.MinInt32), int32(2), uint8(0), uint16(1), uint16(2), math.Copysign(0, -1), 5e-324, int64(math.MinInt64), true)
	f.Add(int64(1e18), int32(1), int32(2), uint8(17), uint16(30000), uint16(80), 1e21, 1.7976931348623157e308, int64(1), false)
	f.Fuzz(func(t *testing.T, start int64, src, dst int32, proto uint8, sport, dport uint16, size, rate float64, dur int64, tcp bool) {
		d := Demand{
			Src: netgraph.NodeID(src), Dst: netgraph.NodeID(dst),
			Start: simtime.Time(start), SizeBits: size, RateBps: rate,
			Duration: simtime.Duration(dur), TCP: tcp,
		}
		d.Key.Proto, d.Key.SrcPort, d.Key.DstPort = proto, sport, dport
		tr := Trace{d, d}
		tr[1].TCP = !tcp
		var got bytes.Buffer
		if err := tr.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if want := csvWriterOracle(tr); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteCSV differs from encoding/csv:\n got %q\nwant %q", got.Bytes(), want)
		}
	})
}
