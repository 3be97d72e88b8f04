package header

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMACRoundTrip(t *testing.T) {
	m := MACFromUint64(0x0102030405c6)
	if m.String() != "01:02:03:04:05:c6" {
		t.Errorf("String = %q", m.String())
	}
	if m.Uint64() != 0x0102030405c6 {
		t.Errorf("Uint64 = %x", m.Uint64())
	}
	parsed, err := ParseMAC(m.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != m {
		t.Errorf("ParseMAC round trip: %v != %v", parsed, m)
	}
	if _, err := ParseMAC("nonsense"); err == nil {
		t.Error("ParseMAC accepted garbage")
	}
	if _, err := ParseMAC("01:02:03:04:05:06:07:08"); err == nil {
		t.Error("ParseMAC accepted a 64-bit EUI")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := IPv4FromUint32(0xc0a80164)
	if ip.String() != "192.168.1.100" {
		t.Errorf("String = %q", ip.String())
	}
	if ip.Uint32() != 0xc0a80164 {
		t.Errorf("Uint32 = %x", ip.Uint32())
	}
	parsed, err := ParseIPv4("192.168.1.100")
	if err != nil {
		t.Fatal(err)
	}
	if parsed != ip {
		t.Errorf("round trip: %v != %v", parsed, ip)
	}
	if _, err := ParseIPv4("::1"); err == nil {
		t.Error("ParseIPv4 accepted IPv6")
	}
	if _, err := ParseIPv4("999.1.1.1"); err == nil {
		t.Error("ParseIPv4 accepted invalid quad")
	}
}

func sampleKey() FlowKey {
	return FlowKey{
		EthSrc:  MACFromUint64(1),
		EthDst:  MACFromUint64(2),
		EthType: EthTypeIPv4,
		IPSrc:   IPv4FromUint32(0x0a000001),
		IPDst:   IPv4FromUint32(0x0a000002),
		Proto:   ProtoTCP,
		SrcPort: 12345,
		DstPort: PortHTTP,
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := sampleKey()
	r := k.Reverse()
	if r.EthSrc != k.EthDst || r.IPSrc != k.IPDst || r.SrcPort != k.DstPort {
		t.Error("Reverse did not swap fields")
	}
	if r.Reverse() != k {
		t.Error("Reverse is not an involution")
	}
}

func TestFastHashDistinguishes(t *testing.T) {
	k := sampleKey()
	k2 := k
	k2.DstPort = PortHTTPS
	if k.FastHash() == k2.FastHash() {
		t.Error("hash collision on port change (suspicious for FNV)")
	}
	if k.FastHash() != sampleKey().FastHash() {
		t.Error("hash is not deterministic")
	}
}

func TestSymmetricHash(t *testing.T) {
	k := sampleKey()
	if k.SymmetricHash() != k.Reverse().SymmetricHash() {
		t.Error("SymmetricHash differs across directions")
	}
}

// twoPassSymmetricHash is SymmetricHash's definition: the FastHashes of
// the key and of its reverse, smaller one first.
func twoPassSymmetricHash(k FlowKey) uint64 {
	a, b := k.FastHash(), k.Reverse().FastHash()
	if a < b {
		return a*31 + b
	}
	return b*31 + a
}

// randomKey fills every byte of a key from rng.
func randomKey(rng *rand.Rand) FlowKey {
	var k FlowKey
	rng.Read(k.EthSrc[:])
	rng.Read(k.EthDst[:])
	rng.Read(k.IPSrc[:])
	rng.Read(k.IPDst[:])
	k.EthType, k.VLAN = uint16(rng.Uint32()), uint16(rng.Uint32())
	k.Proto = uint8(rng.Uint32())
	k.SrcPort, k.DstPort = uint16(rng.Uint32()), uint16(rng.Uint32())
	return k
}

// TestSymmetricHashOnePass pins the one-pass SymmetricHash bit for bit to
// its two-pass definition on random keys, a key equal to its reverse,
// and the zero key.
func TestSymmetricHashOnePass(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sym := sampleKey()
	sym.EthDst, sym.IPDst, sym.DstPort = sym.EthSrc, sym.IPSrc, sym.SrcPort
	keys := []FlowKey{{}, sampleKey(), sym}
	for range 200_000 {
		keys = append(keys, randomKey(rng))
	}
	for _, k := range keys {
		if got, want := k.SymmetricHash(), twoPassSymmetricHash(k); got != want {
			t.Fatalf("SymmetricHash(%v) = %#x, two-pass definition %#x", k, got, want)
		}
	}
}

// hashSink keeps BenchmarkSymmetricHash's calls from being optimized away.
var hashSink uint64

func BenchmarkSymmetricHash(b *testing.B) {
	k := sampleKey()
	for i := 0; i < b.N; i++ {
		k.SrcPort = uint16(i)
		hashSink += k.SymmetricHash()
	}
}

func TestMatchAll(t *testing.T) {
	if !MatchAll.Matches(sampleKey()) {
		t.Error("MatchAll must match everything")
	}
	if MatchAll.NumFields() != 0 {
		t.Error("MatchAll constrains fields")
	}
	if MatchAll.String() != "*" {
		t.Errorf("MatchAll prints as %q", MatchAll.String())
	}
}

func TestMatchExactFields(t *testing.T) {
	k := sampleKey()
	m := Match{}.
		WithEthSrc(k.EthSrc).
		WithEthDst(k.EthDst).
		WithEthType(k.EthType).
		WithProto(k.Proto).
		WithSrcPort(k.SrcPort).
		WithDstPort(k.DstPort)
	if !m.Matches(k) {
		t.Fatal("exact match failed")
	}
	if m.NumFields() != 6 {
		t.Errorf("NumFields = %d, want 6", m.NumFields())
	}
	k2 := k
	k2.Proto = ProtoUDP
	if m.Matches(k2) {
		t.Error("match ignored proto mismatch")
	}
}

func TestMatchPrefix(t *testing.T) {
	k := sampleKey() // IPDst 10.0.0.2
	m := Match{}.WithIPDst(IPv4FromUint32(0x0a000000), 24)
	if !m.Matches(k) {
		t.Error("10.0.0.0/24 should match 10.0.0.2")
	}
	m32 := Match{}.WithIPDst(IPv4FromUint32(0x0a000003), 32)
	if m32.Matches(k) {
		t.Error("/32 matched wrong host")
	}
	m8 := Match{}.WithIPDst(IPv4FromUint32(0x0a636363), 8)
	if !m8.Matches(k) {
		t.Error("10.0.0.0/8 should match any 10.x")
	}
	// Prefix 0 means exact (/32) by convention.
	mExact := Match{}.WithIPDst(k.IPDst, 0)
	if !mExact.Matches(k) {
		t.Error("prefix 0 should be exact and match the same address")
	}
}

func TestMatchVLAN(t *testing.T) {
	k := sampleKey()
	k.VLAN = 100
	if !(Match{}.WithVLAN(100)).Matches(k) {
		t.Error("VLAN match failed")
	}
	if (Match{}.WithVLAN(200)).Matches(k) {
		t.Error("VLAN mismatch accepted")
	}
}

func TestOverlaps(t *testing.T) {
	a := Match{}.WithDstPort(80)
	b := Match{}.WithProto(ProtoTCP)
	if !a.Overlaps(b) {
		t.Error("disjoint fields must overlap")
	}
	c := Match{}.WithDstPort(443)
	if a.Overlaps(c) {
		t.Error("different exact ports cannot overlap")
	}
	p1 := Match{}.WithIPDst(IPv4FromUint32(0x0a000000), 8)
	p2 := Match{}.WithIPDst(IPv4FromUint32(0x0a010000), 16)
	if !p1.Overlaps(p2) {
		t.Error("10/8 overlaps 10.1/16")
	}
	p3 := Match{}.WithIPDst(IPv4FromUint32(0x0b000000), 8)
	if p1.Overlaps(p3) {
		t.Error("10/8 does not overlap 11/8")
	}
	if !MatchAll.Overlaps(a) || !a.Overlaps(MatchAll) {
		t.Error("wildcard overlaps everything")
	}
}

func TestSubsumes(t *testing.T) {
	all := MatchAll
	specific := Match{}.WithDstPort(80).WithProto(ProtoTCP)
	if !all.Subsumes(specific) {
		t.Error("wildcard subsumes everything")
	}
	if specific.Subsumes(all) {
		t.Error("specific cannot subsume wildcard")
	}
	p8 := Match{}.WithIPDst(IPv4FromUint32(0x0a000000), 8)
	p16 := Match{}.WithIPDst(IPv4FromUint32(0x0a010000), 16)
	if !p8.Subsumes(p16) {
		t.Error("10/8 subsumes 10.1/16")
	}
	if p16.Subsumes(p8) {
		t.Error("10.1/16 does not subsume 10/8")
	}
	if !specific.Subsumes(specific) {
		t.Error("subsumption must be reflexive")
	}
}

// Property: if m.Subsumes(o) then every key matched by o is matched by m.
// We approximate "every key" with randomized keys that are forced to match o.
func TestSubsumesImpliesMatch(t *testing.T) {
	prop := func(srcPort, dstPort uint16, proto uint8, ipd uint32) bool {
		k := FlowKey{
			IPDst:   IPv4FromUint32(ipd),
			Proto:   proto,
			SrcPort: srcPort,
			DstPort: dstPort,
		}
		o := Match{}.WithDstPort(dstPort).WithProto(proto).WithIPDst(k.IPDst, 24)
		m := Match{}.WithIPDst(k.IPDst, 16)
		if !o.Matches(k) {
			return false
		}
		if m.Subsumes(o) && !m.Matches(k) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Overlaps is symmetric.
func TestOverlapSymmetry(t *testing.T) {
	prop := func(aPort, bPort uint16, aProto, bProto uint8, useProtoA, useProtoB bool) bool {
		a, b := Match{}.WithDstPort(aPort), Match{}.WithDstPort(bPort)
		if useProtoA {
			a = a.WithProto(aProto)
		}
		if useProtoB {
			b = b.WithProto(bProto)
		}
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchString(t *testing.T) {
	m := Match{}.WithDstPort(80).WithIPDst(IPv4FromUint32(0x0a000000), 24)
	s := m.String()
	if s != "ip_dst=10.0.0.0/24,dst_port=80" {
		t.Errorf("String = %q", s)
	}
}

func BenchmarkFastHash(b *testing.B) {
	k := sampleKey()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += k.FastHash()
	}
	_ = sink
}

func BenchmarkMatch(b *testing.B) {
	k := sampleKey()
	m := Match{}.WithEthDst(k.EthDst).WithIPDst(k.IPDst, 24).WithDstPort(k.DstPort)
	for i := 0; i < b.N; i++ {
		if !m.Matches(k) {
			b.Fatal("no match")
		}
	}
}
