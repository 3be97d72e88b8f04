// Package header defines the flow abstraction at the heart of Horse: a
// "data flow" is an aggregate of packets that share header-field values but
// carry a time-varying rate (Section 2 of the paper). FlowKey captures those
// header fields in a fixed-size, comparable struct so it can be used
// directly as a map key and hashed without allocation — the same trick
// gopacket uses for its Endpoint/Flow types.
package header

import (
	"fmt"
	"net"
)

// MAC is a 48-bit Ethernet address stored by value so FlowKey stays
// comparable.
type MAC [6]byte

// String formats the address in the usual colon-separated form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 builds a MAC from the low 48 bits of v. It is the standard
// way Horse assigns synthetic addresses to generated hosts.
func MACFromUint64(v uint64) MAC {
	var m MAC
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// Uint64 returns the address as an integer (useful for hashing and tests).
func (m MAC) Uint64() uint64 {
	var v uint64
	for _, b := range m {
		v = v<<8 | uint64(b)
	}
	return v
}

// ParseMAC parses a colon-separated MAC address.
func ParseMAC(s string) (MAC, error) {
	hw, err := net.ParseMAC(s)
	if err != nil {
		return MAC{}, err
	}
	if len(hw) != 6 {
		return MAC{}, fmt.Errorf("header: not a 48-bit MAC: %q", s)
	}
	var m MAC
	copy(m[:], hw)
	return m, nil
}

// IPv4 is a 32-bit IPv4 address stored by value.
type IPv4 [4]byte

// String formats the address in dotted-quad form.
func (ip IPv4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// IPv4FromUint32 builds an address from its integer representation.
func IPv4FromUint32(v uint32) IPv4 {
	return IPv4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Uint32 returns the address as an integer.
func (ip IPv4) Uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// ParseIPv4 parses a dotted-quad address.
func ParseIPv4(s string) (IPv4, error) {
	p := net.ParseIP(s)
	if p == nil {
		return IPv4{}, fmt.Errorf("header: invalid IPv4 address %q", s)
	}
	p4 := p.To4()
	if p4 == nil {
		return IPv4{}, fmt.Errorf("header: not an IPv4 address %q", s)
	}
	var ip IPv4
	copy(ip[:], p4)
	return ip, nil
}

// EtherType values used by the simulator.
const (
	EthTypeIPv4 uint16 = 0x0800
	EthTypeARP  uint16 = 0x0806
	EthTypeVLAN uint16 = 0x8100
)

// IP protocol numbers used by the simulator.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// Well-known ports for application-layer peering policies.
const (
	PortHTTP  uint16 = 80
	PortHTTPS uint16 = 443
	PortDNS   uint16 = 53
	PortBGP   uint16 = 179
)

// FlowKey is the set of header fields that identifies a data flow. It is a
// comparable value type: two FlowKeys are the same flow iff they are ==.
type FlowKey struct {
	EthSrc  MAC
	EthDst  MAC
	EthType uint16
	VLAN    uint16 // 0 = untagged
	IPSrc   IPv4
	IPDst   IPv4
	Proto   uint8
	SrcPort uint16
	DstPort uint16
}

// Reverse returns the key of the opposite direction of the flow (src and
// dst swapped at every layer).
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		EthSrc: k.EthDst, EthDst: k.EthSrc,
		EthType: k.EthType, VLAN: k.VLAN,
		IPSrc: k.IPDst, IPDst: k.IPSrc,
		Proto:   k.Proto,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
	}
}

// String renders the key compactly for logs and traces.
func (k FlowKey) String() string {
	return fmt.Sprintf("%s->%s %s:%d->%s:%d proto=%d", k.EthSrc, k.EthDst, k.IPSrc, k.SrcPort, k.IPDst, k.DstPort, k.Proto)
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv folds one byte into an FNV-1a hash.
func fnv(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

// fnv16 folds v into an FNV-1a hash, high byte first.
func fnv16(h uint64, v uint16) uint64 { return fnv(fnv(h, byte(v>>8)), byte(v)) }

// FastHash returns a 64-bit FNV-1a hash of the key without allocating. It is
// not symmetric (A→B hashes differently from B→A); use SymmetricHash for
// direction-insensitive bucketing such as ECMP group selection.
func (k FlowKey) FastHash() uint64 {
	h := uint64(fnvOffset)
	for _, b := range k.EthSrc {
		h = fnv(h, b)
	}
	for _, b := range k.EthDst {
		h = fnv(h, b)
	}
	h = fnv16(fnv16(h, k.EthType), k.VLAN)
	for _, b := range k.IPSrc {
		h = fnv(h, b)
	}
	for _, b := range k.IPDst {
		h = fnv(h, b)
	}
	return fnv16(fnv16(fnv(h, k.Proto), k.SrcPort), k.DstPort)
}

// SymmetricHash returns a hash that is identical for a flow and its
// reverse, for bidirectionally consistent load balancing: the FastHash of
// the key and of its Reverse, combined in an order-free way. The two
// hashes are computed in one pass over the key, as interleaved chains.
func (k FlowKey) SymmetricHash() uint64 {
	a, b := uint64(fnvOffset), uint64(fnvOffset)
	for i := range k.EthSrc {
		a, b = fnv(a, k.EthSrc[i]), fnv(b, k.EthDst[i])
	}
	for i := range k.EthDst {
		a, b = fnv(a, k.EthDst[i]), fnv(b, k.EthSrc[i])
	}
	a, b = fnv16(fnv16(a, k.EthType), k.VLAN), fnv16(fnv16(b, k.EthType), k.VLAN)
	for i := range k.IPSrc {
		a, b = fnv(a, k.IPSrc[i]), fnv(b, k.IPDst[i])
	}
	for i := range k.IPDst {
		a, b = fnv(a, k.IPDst[i]), fnv(b, k.IPSrc[i])
	}
	a = fnv16(fnv16(fnv(a, k.Proto), k.SrcPort), k.DstPort)
	b = fnv16(fnv16(fnv(b, k.Proto), k.DstPort), k.SrcPort)
	if a < b {
		return a*31 + b
	}
	return b*31 + a
}
