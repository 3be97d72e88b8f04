package traffic

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sort"
	"testing"
)

// FuzzStreamVsReadCSV fuzzes the windowed streaming reader against the
// all-up-front ReadCSV with the equivalence property: on any input
// ReadCSV accepts, the streamed sequence must equal the stable
// sort-by-Start of the parsed trace — and when the input is already in
// nondecreasing order (the Reader contract), it must equal ReadCSV's row
// order exactly. The only error the stream may add on an accepted input
// is ErrTraceOrder, and only when the input genuinely is out of order.
// Run the smoke pass with `make fuzz-smoke`; the seed corpus under
// testdata/fuzz is checked in.
func FuzzStreamVsReadCSV(f *testing.F) {
	hdr := "start_s,src,dst,proto,src_port,dst_port,size_bits,rate_bps,duration_s,tcp\n"
	f.Add([]byte(hdr+"0,0,1,17,1000,80,1e6,1e6,0,false\n0.5,1,0,6,1001,443,inf,inf,2,true\n"), uint16(2))
	f.Add([]byte(hdr+"0.5,1,0,6,1001,443,inf,inf,2,true\n0,0,1,17,1000,80,1e6,1e6,0,false\n"), uint16(1))
	f.Add([]byte(hdr+"3,2,3,17,1,2,1,1,0,false\n1,3,2,17,2,1,1,1,0,false\n2,2,3,6,3,4,9,9,1,true\n"), uint16(4))
	f.Add([]byte("not,a,trace\n1,2,3\n"), uint16(3))
	f.Add([]byte(hdr+"0,0,1,17,1000,80,1e6,notafloat,0,false\n"), uint16(8))
	// Lines the strict scanner declines, at the header and mid-stream:
	// each hands the rest of the input to encoding/csv, which must then
	// accept and reject exactly what ReadCSV does.
	row := "0,0,1,17,1000,80,1e6,1e6,0,false\n"
	f.Add([]byte(hdr+row+`0.5,"1",0,6,1001,443,inf,inf,2,true`+"\n"+row), uint16(3))
	f.Add([]byte(hdr+row+"0.5,1,0,6,1001,443,inf,inf,2,true\r\n"+row), uint16(3))
	f.Add([]byte(hdr+row+"\n"+row), uint16(2))
	f.Add([]byte(hdr+row+"0.5,1,0,6\n"+row), uint16(2))
	f.Add([]byte(hdr+row+" 0.5,1,0,6,1001,443,inf,inf,2,true\n"), uint16(2))
	f.Add([]byte(`"start_s",src,dst,proto,src_port,dst_port,size_bits,rate_bps,duration_s,tcp`+"\r\n"+row+row), uint16(1))
	f.Add([]byte("\n"+hdr+row), uint16(1))
	f.Add([]byte(hdr+row+`1,2,3,17,1,2,"in`+"\n"+`f",1,0,false`+"\n"), uint16(5))
	f.Add([]byte(hdr+row+"0.5,1,0,6,1001,443,inf,inf,2,true,extra\n"), uint16(2))
	f.Add([]byte(hdr+"0,0,1,17,1000,80,1e6,1e6,0,false"), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, window uint16) {
		w := int(window%64) + 1
		base, baseErr := ReadCSV(bytes.NewReader(data))

		r, err := NewCSVReader(bytes.NewReader(data), w)
		if err != nil {
			// Header-level rejection: ReadCSV must reject too (the
			// acceptance sets are identical).
			if baseErr == nil {
				t.Fatalf("NewCSVReader rejected (%v) what ReadCSV accepted", err)
			}
			return
		}
		var got Trace
		var streamErr error
		for {
			d, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				streamErr = err
				break
			}
			got = append(got, d)
		}

		if baseErr != nil {
			// ReadCSV rejected the input; the stream may emit a valid
			// prefix first but must not end cleanly.
			if streamErr == nil {
				t.Fatalf("stream accepted input ReadCSV rejected: %v", baseErr)
			}
			return
		}
		sorted := isNondecreasing(base)
		if streamErr != nil {
			if !errors.Is(streamErr, ErrTraceOrder) {
				t.Fatalf("stream error %v on input ReadCSV accepted", streamErr)
			}
			if sorted {
				t.Fatal("ErrTraceOrder on a nondecreasing input")
			}
			return
		}
		want := append(Trace(nil), base...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Start < want[j].Start })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("streamed sequence differs from stable-sorted ReadCSV (window %d, %d rows)", w, len(base))
		}
		if sorted && !reflect.DeepEqual(got, base) {
			t.Fatal("sorted input: streamed sequence differs from ReadCSV row order")
		}
	})
}

func isNondecreasing(tr Trace) bool {
	for i := 1; i < len(tr); i++ {
		if tr[i].Start < tr[i-1].Start {
			return false
		}
	}
	return true
}
