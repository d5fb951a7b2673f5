package dht

import "selfemerge/internal/transport"

// DefaultInternBound is the entry bound of a node's own AddrInterner, the
// one it builds when Config.Interner is nil.
const DefaultInternBound = 1 << 16

// AddrInterner maps raw address bytes to one canonical Addr per distinct
// address, so decoding a contact costs a short hash and usually one slot
// probe instead of a string allocation. It is an open-addressing table
// keyed by FNV-1a — measurably cheaper than a map[string]Addr, which pays
// full map machinery per contact on the hottest path in the simulator.
// Entries are never deleted, and the table is bounded: past its bound,
// unseen addresses are converted without being remembered, so a flood of
// unique (forged) addresses degrades to plain allocation instead of growing
// the table without limit.
//
// An AddrInterner is not safe for concurrent use. The nodes of one event
// loop share one (see Config.Interner); a standalone node owns its own.
type AddrInterner struct {
	slots []addrSlot // power-of-two length
	used  int
	bound int
}

type addrSlot struct {
	hash uint64 // 0 = empty (occupied hashes are forced nonzero)
	addr transport.Addr
}

// NewAddrInterner returns an empty interner that remembers at most bound
// addresses (at least one).
func NewAddrInterner(bound int) *AddrInterner {
	return &AddrInterner{bound: max(bound, 1)}
}

// Len returns the number of interned addresses.
func (in *AddrInterner) Len() int { return in.used }

func hashAddr(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Intern returns the canonical Addr for raw address bytes, remembering it
// for later calls while the table is under its bound. A nil interner
// converts without remembering.
func (in *AddrInterner) Intern(b []byte) transport.Addr {
	if in == nil {
		return transport.Addr(b)
	}
	h := hashAddr(b)
	if in.used > 0 {
		mask := len(in.slots) - 1
		for i := int(h) & mask; ; i = (i + 1) & mask {
			sl := &in.slots[i]
			if sl.hash == 0 {
				break
			}
			if sl.hash == h && string(sl.addr) == string(b) {
				return sl.addr
			}
		}
	}
	a := transport.Addr(b)
	if in.used >= in.bound {
		return a
	}
	if 4*(in.used+1) > 3*len(in.slots) {
		in.grow()
	}
	mask := len(in.slots) - 1
	i := int(h) & mask
	for in.slots[i].hash != 0 {
		i = (i + 1) & mask
	}
	in.slots[i] = addrSlot{hash: h, addr: a}
	in.used++
	return a
}

// grow doubles the slot array and re-homes every entry.
func (in *AddrInterner) grow() {
	old := in.slots
	size := max(2*len(old), 32)
	in.slots = make([]addrSlot, size)
	mask := size - 1
	for i := range old {
		if old[i].hash == 0 {
			continue
		}
		j := int(old[i].hash) & mask
		for in.slots[j].hash != 0 {
			j = (j + 1) & mask
		}
		in.slots[j] = old[i]
	}
}
