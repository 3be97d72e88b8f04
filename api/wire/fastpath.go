package wire

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// The Record event frame is the one message of the protocol whose count
// scales with the simulation, so it alone has a hand-written codec; every
// other frame goes through encoding/json. The server emits Record frames
// in one canonical form — the bytes json.Marshal produces for
// Frame{V, Event: EventRecord, Session, Data: json.Marshal(Record)} —
// and the client's scanner accepts exactly that form and declines
// anything else, which then takes the encoding/json path. The canonical
// form is an implementation detail of this package, not part of
// horse-wire/v1: peers must not depend on it.

// plainByte marks the bytes both codecs copy verbatim inside a JSON
// string: printable ASCII minus the quote, the backslash and the three
// characters encoding/json HTML-escapes.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// AppendRecordFrame appends the Record event frame of r (no trailing
// newline) to dst and returns the extended slice. The bytes equal
// json.Marshal of the same Frame; it does not allocate beyond growing
// dst unless a string needs escaping.
func AppendRecordFrame(dst []byte, version, session string, r *Record) []byte {
	dst = append(dst, '{')
	if version != "" {
		dst = append(dst, `"v":`...)
		dst = appendString(dst, version)
		dst = append(dst, ',')
	}
	dst = append(dst, `"event":"`+EventRecord+`",`...)
	if session != "" {
		dst = append(dst, `"session":`...)
		dst = appendString(dst, session)
		dst = append(dst, ',')
	}
	dst = append(dst, `"data":{"id":`...)
	dst = strconv.AppendInt(dst, r.ID, 10)
	dst = append(dst, `,"arrival_ns":`...)
	dst = strconv.AppendInt(dst, r.ArrivalNs, 10)
	dst = append(dst, `,"end_ns":`...)
	dst = strconv.AppendInt(dst, r.EndNs, 10)
	dst = append(dst, `,"size_bits":`...)
	dst = appendFloat(dst, r.SizeBits)
	dst = append(dst, `,"sent_bits":`...)
	dst = appendFloat(dst, r.SentBits)
	dst = append(dst, `,"completed":`...)
	dst = strconv.AppendBool(dst, r.Completed)
	dst = append(dst, `,"outcome":`...)
	dst = appendString(dst, r.Outcome)
	dst = append(dst, `,"path_len":`...)
	dst = strconv.AppendInt(dst, int64(r.PathLen), 10)
	dst = append(dst, `,"punts":`...)
	dst = strconv.AppendInt(dst, int64(r.Punts), 10)
	return append(dst, "}}"...)
}

// appendString appends s as a JSON string, deferring to encoding/json
// for any string it would not copy verbatim.
func appendString(dst []byte, s string) []byte {
	if !isPlain(s) {
		b, _ := json.Marshal(s) // a string always encodes
		return append(dst, b...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

func isPlain(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// appendFloat appends f as Float.MarshalJSON encodes it: the three
// non-finite strings, otherwise encoding/json's float64 form (shortest
// round-trip digits, exponent notation below 1e-6 and from 1e21).
func appendFloat(dst []byte, f Float) []byte {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return append(dst, `"+inf"`...)
	case math.IsInf(v, -1):
		return append(dst, `"-inf"`...)
	case math.IsNaN(v):
		return append(dst, `"nan"`...)
	}
	abs := math.Abs(v)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(dst, v, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, v, 'e', -1, 64)
	// encoding/json writes e-09 as e-9.
	if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// recordFramePrefix returns the canonical Record frame up to the session
// ID under the given protocol version: what every frame the fast decoder
// accepts starts with.
func recordFramePrefix(version string) string {
	const key = `"session":`
	frame := string(AppendRecordFrame(nil, version, "s", &Record{}))
	return frame[:strings.Index(frame, key)+len(key)]
}

// decodeRecordFrame scans line as a canonical Record frame (prefix is
// recordFramePrefix of the connection's version) into rec and returns the
// frame's session ID, aliasing line. It reports false — leaving rec
// untouched — on any deviation from the canonical form: another field
// order, an escape or a non-ASCII byte in a string, whitespace, a missing
// or unknown field, a number outside its field's range. A frame it
// accepts decodes exactly as encoding/json would decode it.
func decodeRecordFrame(line []byte, prefix string, rec *Record) (session []byte, ok bool) {
	s := scanner{b: line}
	var r Record
	s.lit(prefix)
	session = s.str()
	s.lit(`,"data":{"id":`)
	r.ID = s.int()
	s.lit(`,"arrival_ns":`)
	r.ArrivalNs = s.int()
	s.lit(`,"end_ns":`)
	r.EndNs = s.int()
	s.lit(`,"size_bits":`)
	r.SizeBits = s.float()
	s.lit(`,"sent_bits":`)
	r.SentBits = s.float()
	s.lit(`,"completed":`)
	r.Completed = s.bool()
	s.lit(`,"outcome":`)
	outcome := s.str()
	s.lit(`,"path_len":`)
	r.PathLen = s.machineInt()
	s.lit(`,"punts":`)
	r.Punts = s.machineInt()
	s.lit("}}")
	if len(s.b) == 1 && s.b[0] == '\n' {
		s.b = s.b[1:]
	}
	if s.bad || len(s.b) != 0 || len(session) == 0 {
		return nil, false
	}
	r.Outcome = outcomeString(outcome)
	*rec = r
	return session, true
}

// outcomeString returns the engines' six record outcomes as constants, so
// decoding them allocates nothing; any other outcome is copied.
func outcomeString(b []byte) string {
	switch string(b) {
	case "completed":
		return "completed"
	case "dropped":
		return "dropped"
	case "looped":
		return "looped"
	case "expired-waiting":
		return "expired-waiting"
	case "running":
		return "running"
	case "waiting":
		return "waiting"
	}
	return string(b)
}

// scanner consumes a byte slice front to back. The first mismatch sets
// bad and empties the input, so callers check once at the end.
type scanner struct {
	b   []byte
	bad bool
}

func (s *scanner) fail() {
	s.b, s.bad = nil, true
}

// lit consumes the literal l.
func (s *scanner) lit(l string) {
	if len(s.b) < len(l) || string(s.b[:len(l)]) != l {
		s.fail()
		return
	}
	s.b = s.b[len(l):]
}

// str consumes a quoted string of plain bytes and returns its contents.
func (s *scanner) str() []byte {
	if len(s.b) == 0 || s.b[0] != '"' {
		s.fail()
		return nil
	}
	for i := 1; i < len(s.b); i++ {
		if c := s.b[i]; !plainByte[c] {
			if c != '"' {
				break
			}
			v := s.b[1:i]
			s.b = s.b[i+1:]
			return v
		}
	}
	s.fail()
	return nil
}

// int consumes a JSON integer that fits int64.
func (s *scanner) int() int64 {
	neg := len(s.b) > 0 && s.b[0] == '-'
	i := 0
	if neg {
		i = 1
	}
	start := i
	var u uint64
	for ; i < len(s.b) && '0' <= s.b[i] && s.b[i] <= '9'; i++ {
		d := uint64(s.b[i] - '0')
		if u > (math.MaxUint64-d)/10 {
			s.fail()
			return 0
		}
		u = u*10 + d
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	// No digits, a leading zero, or out of range.
	if i == start || (s.b[start] == '0' && i > start+1) || u > limit {
		s.fail()
		return 0
	}
	s.b = s.b[i:]
	if neg {
		return -int64(u) // u == 1<<63 wraps to MinInt64, as it should
	}
	return int64(u)
}

// machineInt consumes a JSON integer that fits int.
func (s *scanner) machineInt() int {
	v := s.int()
	if int64(int(v)) != v {
		s.fail()
		return 0
	}
	return int(v)
}

func (s *scanner) bool() bool {
	if len(s.b) > 0 && s.b[0] == 't' {
		s.lit("true")
		return !s.bad
	}
	s.lit("false")
	return false
}

// float consumes a Float: a JSON number in float64 range, or one of the
// three strings Float.MarshalJSON writes.
func (s *scanner) float() Float {
	if len(s.b) > 0 && s.b[0] == '"' {
		switch v := s.str(); string(v) {
		case "+inf":
			return Float(math.Inf(1))
		case "-inf":
			return Float(math.Inf(-1))
		case "nan":
			return Float(math.NaN())
		}
		s.fail()
		return 0
	}
	n, digitsOnly := jsonNumberLen(s.b)
	if n == 0 {
		s.fail()
		return 0
	}
	tok := s.b[:n]
	s.b = s.b[n:]
	if digitsOnly && n <= 15 { // below 2^53: the integer is the float, exactly
		var u uint64
		for _, c := range tok {
			u = u*10 + uint64(c-'0')
		}
		return Float(u)
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.fail()
		return 0
	}
	return Float(v)
}

// jsonNumberLen returns the length of the JSON number at the front of b
// (0 if there is none) and whether it is an unsigned integer literal.
// strconv.ParseFloat accepts more than JSON does (hex, underscores, a
// bare leading dot), hence the separate grammar check.
func jsonNumberLen(b []byte) (n int, digitsOnly bool) {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	intStart := i
	i = digits(i)
	if i == intStart || (b[intStart] == '0' && i > intStart+1) {
		return 0, false
	}
	digitsOnly = intStart == 0
	if i < len(b) && b[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return 0, false
		}
		i, digitsOnly = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		k := digits(j)
		if k == j {
			return 0, false
		}
		i, digitsOnly = k, false
	}
	return i, digitsOnly
}
