package traffic

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"horse/internal/header"
	"horse/internal/netgraph"
	"horse/internal/simtime"
)

// traceHeader is the CSV column set, stable across versions.
var traceHeader = [...]string{
	"start_s", "src", "dst", "proto", "src_port", "dst_port",
	"size_bits", "rate_bps", "duration_s", "tcp",
}

// WriteCSV serializes the trace. Infinite sizes/rates are written as "inf".
// The output is what encoding/csv.Writer produces for the same fields: no
// numeric or boolean field ever needs quoting, so each row is built in one
// reused buffer and written through one bufio.Writer.
func (tr Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	row := make([]byte, 0, 256)
	for i, h := range traceHeader {
		if i > 0 {
			row = append(row, ',')
		}
		row = append(row, h...)
	}
	row = append(row, '\n')
	bw.Write(row)
	ff := func(b []byte, v float64) []byte {
		if math.IsInf(v, 1) {
			return append(b, "inf"...)
		}
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	for i := range tr {
		d := &tr[i]
		row = strconv.AppendFloat(row[:0], d.Start.Seconds(), 'g', -1, 64)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(d.Src), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(d.Dst), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(d.Key.Proto), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(d.Key.SrcPort), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(d.Key.DstPort), 10)
		row = append(row, ',')
		row = ff(row, d.SizeBits)
		row = append(row, ',')
		row = ff(row, d.RateBps)
		row = append(row, ',')
		row = strconv.AppendFloat(row, d.Duration.Seconds(), 'g', -1, 64)
		row = append(row, ',')
		row = strconv.AppendBool(row, d.TCP)
		row = append(row, '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV. Flow keys are rebuilt from
// the addressing plan.
func ReadCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("traffic: reading trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("traffic: empty trace file")
	}
	if len(rows[0]) != len(traceHeader) || rows[0][0] != traceHeader[0] {
		return nil, fmt.Errorf("traffic: unrecognized trace header %v", rows[0])
	}
	var tr Trace
	for ln, row := range rows[1:] {
		d, err := parseTraceRow(row, ln+2)
		if err != nil {
			return nil, err
		}
		tr = append(tr, d)
	}
	return tr, nil
}

// parseTraceRow decodes one data row (line is the 1-based file line, for
// errors). ReadCSV passes encoding/csv's fields, the streaming reader its
// scanner's byte slices, so both accept exactly the same inputs.
func parseTraceRow[T string | []byte](row []T, line int) (Demand, error) {
	fail := func(err error) (Demand, error) {
		return Demand{}, fmt.Errorf("traffic: trace line %d: %w", line, err)
	}
	pf := func(s T) (float64, error) {
		if string(s) == "inf" {
			return math.Inf(1), nil
		}
		return strconv.ParseFloat(string(s), 64)
	}
	start, err := strconv.ParseFloat(string(row[0]), 64)
	if err != nil {
		return fail(err)
	}
	src, err := strconv.Atoi(string(row[1]))
	if err != nil {
		return fail(err)
	}
	dst, err := strconv.Atoi(string(row[2]))
	if err != nil {
		return fail(err)
	}
	proto, err := strconv.Atoi(string(row[3]))
	if err != nil {
		return fail(err)
	}
	sport, err := strconv.Atoi(string(row[4]))
	if err != nil {
		return fail(err)
	}
	dport, err := strconv.Atoi(string(row[5]))
	if err != nil {
		return fail(err)
	}
	size, err := pf(row[6])
	if err != nil {
		return fail(err)
	}
	rate, err := pf(row[7])
	if err != nil {
		return fail(err)
	}
	durS, err := strconv.ParseFloat(string(row[8]), 64)
	if err != nil {
		return fail(err)
	}
	tcp, err := strconv.ParseBool(string(row[9]))
	if err != nil {
		return fail(err)
	}
	d := Demand{
		Src: netgraph.NodeID(src), Dst: netgraph.NodeID(dst),
		Start:    simtime.AtSeconds(start),
		SizeBits: size, RateBps: rate,
		Duration: simtime.FromSeconds(durS),
		TCP:      tcp,
	}
	d.Key = keyFor(d, uint8(proto), uint16(sport), uint16(dport))
	return d, nil
}

func keyFor(d Demand, proto uint8, sport, dport uint16) header.FlowKey {
	k := header.FlowKey{
		EthType: header.EthTypeIPv4,
		Proto:   proto,
		SrcPort: sport,
		DstPort: dport,
	}
	k.EthSrc = header.MACFromUint64(uint64(d.Src) + 1)
	k.EthDst = header.MACFromUint64(uint64(d.Dst) + 1)
	k.IPSrc = header.IPv4FromUint32(0x0a000000 | uint32(d.Src)&0x00ffffff)
	k.IPDst = header.IPv4FromUint32(0x0a000000 | uint32(d.Dst)&0x00ffffff)
	return k
}
