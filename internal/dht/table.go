package dht

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"selfemerge/internal/transport"
)

// Contact is a routable peer: identifier plus transport address.
type Contact struct {
	ID   ID
	Addr transport.Addr
}

// bucketEntry tracks liveness metadata alongside the contact. The ID is
// carried twice: as bytes (inside Contact, for identity compares and
// copy-out) and pre-packed into big-endian lanes, so the selection scan
// XORs lanes against the target directly instead of byte-swapping every
// entry's ID on every Closest call. lastSeen is UnixNano on the table
// clock rather than a time.Time: with millions of live entries the
// time.Time location pointer alone was a measurable garbage-collector
// scan cost, and the staleness test only ever needs a subtraction.
type bucketEntry struct {
	Contact
	l0, l1   uint64
	l2       uint32
	lastSeen int64
}

// bucket is one k-bucket: live entries least-recently-seen first, plus a
// replacement cache of newcomers (newest last) waiting for an eviction, and
// the state of the at-most-one outstanding liveness probe.
type bucket struct {
	entries []bucketEntry
	spare   []bucketEntry
	probing bool
}

// TablePolicy selects the full-bucket admission policy.
type TablePolicy int

const (
	// TableDefault resolves to the context's default: TablePingEvict for a
	// Node (secure by default), TableNaive for a standalone NewTable.
	TableDefault TablePolicy = iota
	// TablePingEvict is the real Kademlia policy: a newcomer to a full
	// bucket waits in the replacement cache while the least-recently-seen
	// entry is pinged, and is promoted only if that probe times out. A live
	// long-lived peer is never displaced by unverified traffic, which is
	// what makes bucket-poisoning floods ineffective.
	TablePingEvict
	// TableNaive is the historical ping-free variant: a newcomer replaces
	// the least-recently-seen entry as soon as it looks stale on the local
	// clock, with no liveness check. Kept for the adversary experiments
	// (the "undefended" arm of the attack curves) and as the pinned policy
	// of recorded deterministic scenarios.
	TableNaive
)

// String returns the policy's axis label.
func (p TablePolicy) String() string {
	switch p {
	case TablePingEvict:
		return "pingevict"
	case TableNaive:
		return "naive"
	default:
		return "default"
	}
}

// ParseTablePolicy parses an axis label ("pingevict" or "naive").
func ParseTablePolicy(s string) (TablePolicy, error) {
	switch s {
	case "pingevict":
		return TablePingEvict, nil
	case "naive":
		return TableNaive, nil
	}
	return TableDefault, fmt.Errorf("dht: unknown table policy %q (want pingevict or naive)", s)
}

// Table is a Kademlia routing table: IDBits k-buckets of at most K contacts
// each, least-recently-seen first. Observing a known contact refreshes it;
// observing a new contact inserts it, and a full bucket admits newcomers
// per the configured TablePolicy. Policy rationale and the threat model are
// documented in DESIGN.md.
type Table struct {
	self       ID
	k          int
	staleAfter time.Duration
	now        func() time.Time

	mu      sync.Mutex
	policy  TablePolicy
	pinger  func(Contact, func(alive bool))
	buckets [IDBits]bucket
	// occupied is a bitmap of buckets with live entries (bit i ↔ buckets[i]),
	// so the selection scan walks the ~log2(N) populated buckets directly
	// instead of testing all IDBits lengths per call. Guarded by mu.
	occupied [(IDBits + 63) / 64]uint64
	// scratch is the selection buffer (see selectClosest); guarded by mu,
	// it keeps its capacity across calls.
	scratch []pick
}

// setOccupied resyncs bucket idx's occupancy bit. Callers hold t.mu and call
// it after any mutation that can change len(entries) across zero.
func (t *Table) setOccupied(idx int) {
	bit := uint64(1) << (idx & 63)
	if len(t.buckets[idx].entries) != 0 {
		t.occupied[idx>>6] |= bit
	} else {
		t.occupied[idx>>6] &^= bit
	}
}

// NewTable creates a routing table for the given node. A standalone table
// defaults to TableNaive (no pinger is attached); Node configures
// TablePingEvict wired to its Ping RPC.
func NewTable(self ID, k int, staleAfter time.Duration, now func() time.Time) *Table {
	if k < 1 {
		panic("dht: bucket size must be >= 1")
	}
	if now == nil {
		panic("dht: table requires a clock")
	}
	return &Table{self: self, k: k, staleAfter: staleAfter, now: now, policy: TableNaive}
}

// SetPolicy selects the full-bucket admission policy. TableDefault resolves
// to TableNaive for a standalone table.
func (t *Table) SetPolicy(p TablePolicy) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if p == TableDefault {
		p = TableNaive
	}
	t.policy = p
}

// SetPinger installs the liveness probe TablePingEvict uses: pinger must
// call done exactly once, with alive=false only after a timeout. It is
// invoked outside the table lock.
func (t *Table) SetPinger(pinger func(Contact, func(alive bool))) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pinger = pinger
}

// Observe records that a contact was seen alive right now, on the word of
// an unverified inbound datagram. A known ID is refreshed but its tracked
// address is NOT re-pointed: any peer can claim any ID in a forged From, so
// accepting an address change here would let an attacker hijack an existing
// entry's traffic with a single spoofed packet. Address changes require
// ObserveVerified (a reply matched to an RPC this node issued).
func (t *Table) Observe(c Contact) {
	t.observe(c, false)
}

// ObserveVerified records a contact whose (ID, Addr) binding was confirmed
// by a matched RPC reply: the peer answered at that address with the pending
// request's RPCID, which a third party cannot forge blindly. Only verified
// observations may update the tracked address of a known ID.
func (t *Table) ObserveVerified(c Contact) {
	t.observe(c, true)
}

func (t *Table) observe(c Contact, verified bool) {
	idx, ok := t.self.BucketIndex(c.ID)
	if !ok {
		return // never track self
	}
	t.mu.Lock()
	b := &t.buckets[idx]
	entries := b.entries
	for i := range entries {
		if entries[i].ID == c.ID {
			if verified {
				entries[i].Addr = c.Addr
			}
			entries[i].lastSeen = t.now().UnixNano()
			// Move to tail (most recently seen).
			entry := entries[i]
			copy(entries[i:], entries[i+1:])
			entries[len(entries)-1] = entry
			t.mu.Unlock()
			return
		}
	}
	entry := bucketEntry{Contact: c, lastSeen: t.now().UnixNano()}
	entry.l0 = binary.BigEndian.Uint64(c.ID[:])
	entry.l1 = binary.BigEndian.Uint64(c.ID[8:])
	entry.l2 = binary.BigEndian.Uint32(c.ID[16:])
	if len(entries) < t.k {
		if cap(entries) == 0 {
			// First insert: skip the smallest growth steps without paying a
			// full K×entry zeroed allocation for the many buckets that stay
			// nearly empty (the far tail of every node's table).
			n := 8
			if n > t.k {
				n = t.k
			}
			entries = make([]bucketEntry, 0, n)
		}
		b.entries = append(entries, entry)
		t.setOccupied(idx)
		t.mu.Unlock()
		return
	}
	// Bucket full: admission is policy-dependent.
	if t.policy != TablePingEvict {
		// Naive: replace the least-recently-seen entry if it looks stale on
		// the local clock — no liveness check, so a forged-contact flood can
		// displace live peers (the measured weakness of this policy).
		if t.staleAfter > 0 && t.now().UnixNano()-entries[0].lastSeen > int64(t.staleAfter) {
			copy(entries, entries[1:])
			entries[len(entries)-1] = entry
		}
		// Otherwise drop the newcomer (Kademlia prefers long-lived peers).
		t.mu.Unlock()
		return
	}
	// Ping-evict: the newcomer waits in the replacement cache while the
	// least-recently-seen live entry is probed. Nothing is evicted on the
	// newcomer's word alone.
	t.upsertSpare(b, entry, verified)
	var probe Contact
	start := !b.probing && t.pinger != nil
	if start {
		b.probing = true
		probe = entries[0].Contact
	}
	pinger := t.pinger
	t.mu.Unlock()
	if start {
		// Outside the lock: the pinger issues a real RPC. A live peer's pong
		// refreshes it via ObserveVerified (and the newcomer stays spare); a
		// timeout removes it via the RPC failure path, and probeDone promotes
		// from the cache.
		pinger(probe, func(alive bool) { t.probeDone(probe.ID, alive) })
	}
}

// upsertSpare inserts or refreshes a replacement-cache record, newest last,
// capped at k (oldest dropped first). Callers hold t.mu.
func (t *Table) upsertSpare(b *bucket, e bucketEntry, verified bool) {
	for i := range b.spare {
		if b.spare[i].ID == e.ID {
			if verified {
				b.spare[i].Addr = e.Addr
			}
			b.spare[i].lastSeen = e.lastSeen
			entry := b.spare[i]
			copy(b.spare[i:], b.spare[i+1:])
			b.spare[len(b.spare)-1] = entry
			return
		}
	}
	if len(b.spare) >= t.k {
		copy(b.spare, b.spare[1:])
		b.spare = b.spare[:len(b.spare)-1]
	}
	b.spare = append(b.spare, e)
}

// probeDone finishes a liveness probe: the probing slot reopens, and if the
// probed entry died (the timeout path already removed it) the freed room is
// filled from the replacement cache.
func (t *Table) probeDone(id ID, _ bool) {
	idx, ok := t.self.BucketIndex(id)
	if !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[idx]
	b.probing = false
	t.promoteSpares(b)
	t.setOccupied(idx)
}

// promoteSpares moves replacement-cache records (newest first) into free
// bucket slots. Callers hold t.mu.
func (t *Table) promoteSpares(b *bucket) {
	for len(b.entries) < t.k && len(b.spare) > 0 {
		last := len(b.spare) - 1
		b.entries = append(b.entries, b.spare[last])
		b.spare[last] = bucketEntry{}
		b.spare = b.spare[:last]
	}
}

// Remove drops a contact (e.g. after an RPC timeout), refilling the freed
// slot from the bucket's replacement cache when one is waiting.
func (t *Table) Remove(id ID) {
	idx, ok := t.self.BucketIndex(id)
	if !ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &t.buckets[idx]
	for i := range b.entries {
		if b.entries[i].ID == id {
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			t.promoteSpares(b)
			t.setOccupied(idx)
			return
		}
	}
	// Not live: forget any replacement-cache record too.
	for i := range b.spare {
		if b.spare[i].ID == id {
			b.spare = append(b.spare[:i], b.spare[i+1:]...)
			return
		}
	}
}

// ranked is one selection candidate: the contact plus its XOR distance from
// the target packed into big-endian uint64/uint32 lanes, so every ordering
// comparison is at most three integer compares instead of a 20-byte
// memcompare over materialized distance arrays.
type ranked struct {
	d0, d1 uint64
	d2     uint32
	c      Contact
}

// farther orders candidates by distance, larger first.
func (a ranked) farther(b ranked) bool {
	if a.d0 != b.d0 {
		return a.d0 > b.d0
	}
	if a.d1 != b.d1 {
		return a.d1 > b.d1
	}
	return a.d2 > b.d2
}

// rankContact packs c with its XOR distance lanes from target.
func rankContact(target ID, c Contact) ranked {
	return ranked{
		d0: binary.BigEndian.Uint64(c.ID[:]) ^ binary.BigEndian.Uint64(target[:]),
		d1: binary.BigEndian.Uint64(c.ID[8:]) ^ binary.BigEndian.Uint64(target[8:]),
		d2: binary.BigEndian.Uint32(c.ID[16:]) ^ binary.BigEndian.Uint32(target[16:]),
		c:  c,
	}
}

// Closest returns up to count contacts closest to target under XOR
// distance, nearest first, in a fresh slice.
func (t *Table) Closest(target ID, count int) []Contact {
	return t.AppendClosest(nil, target, count)
}

// AppendClosest appends up to count contacts closest to target under XOR
// distance to dst, nearest first — the allocation-free form for receive
// paths that recycle a result buffer. This is the per-message hot path
// (every FIND_NODE handler runs it); the contacts are copied out of the
// selection before the lock drops.
func (t *Table) AppendClosest(dst []Contact, target ID, count int) []Contact {
	if count <= 0 {
		return dst
	}
	t.mu.Lock()
	sel := t.selectClosest(target, count)
	if dst == nil {
		dst = make([]Contact, 0, len(sel))
	}
	for _, p := range sel {
		dst = append(dst, p.e.Contact)
	}
	t.mu.Unlock()
	return dst
}

// appendClosestRanked appends the count contacts closest to target to dst
// as ranked entries (distance lanes included), nearest first: the lookup
// shortlist bootstrap, which keeps the lanes for its own ordering.
func (t *Table) appendClosestRanked(dst []ranked, target ID, count int) []ranked {
	if count <= 0 {
		return dst
	}
	t.mu.Lock()
	for _, p := range t.selectClosest(target, count) {
		dst = append(dst, rankContact(target, p.e.Contact))
	}
	t.mu.Unlock()
	return dst
}

// pick is one selected entry: its top distance lane from the target (the
// sort key; lower lanes are read through e on a tie) and the entry itself,
// valid while t.mu is held.
type pick struct {
	d0 uint64
	e  *bucketEntry
}

// selectClosest is the selection core: it returns the count entries
// closest to target, nearest first, in the table's scratch — valid until
// t.mu is released. Callers hold t.mu.
//
// Every entry of bucket i agrees with self above bit i and differs from it
// at bit i, so with s = self XOR target its distance from target equals s
// above bit i, NOT s at bit i, and anything below. The buckets therefore
// cover disjoint distance intervals, ordered nearest first as: the buckets
// whose bit of s is 1, ascending, then those whose bit of s is 0,
// descending (DESIGN.md has the argument). Both runs fall out of the
// occupancy bitmap masked with the bit-reversed lanes of s, so no ranking
// step is needed: the walk takes buckets in order, insertion-sorting each
// one's at most K entries into place, and stops once count are held. A
// bucket that would overshoot keeps only its nearest entries. Distances are
// unique (distinct IDs), so the result matches a full sort exactly.
func (t *Table) selectClosest(target ID, count int) []pick {
	t0 := binary.BigEndian.Uint64(target[:])
	t1 := binary.BigEndian.Uint64(target[8:])
	t2 := binary.BigEndian.Uint32(target[16:])
	// Bucket i's bit of s, at bitmap position i: occupied bit i of word w is
	// bucket 64w+i, while lane w of s is big-endian (bucket 64w at its top).
	rs := [len(t.occupied)]uint64{
		bits.Reverse64(binary.BigEndian.Uint64(t.self[:]) ^ t0),
		bits.Reverse64(binary.BigEndian.Uint64(t.self[8:]) ^ t1),
		uint64(bits.Reverse32(binary.BigEndian.Uint32(t.self[16:]) ^ t2)),
	}
	sel := t.scratch[:0]
	if cap(sel) < count {
		// Sized once to the request: the selection never holds more.
		sel = make([]pick, 0, count)
	}
walk:
	for w := range t.occupied {
		for word := t.occupied[w] & rs[w]; word != 0; word &= word - 1 {
			idx := w<<6 + bits.TrailingZeros64(word)
			if sel = takeBucket(sel, t.buckets[idx].entries, t0, t1, t2, count); len(sel) == count {
				break walk
			}
		}
	}
	for w := len(t.occupied) - 1; w >= 0 && len(sel) < count; w-- {
		for word := t.occupied[w] &^ rs[w]; word != 0; {
			hi := 63 - bits.LeadingZeros64(word)
			word &^= 1 << hi
			idx := w<<6 + hi
			if sel = takeBucket(sel, t.buckets[idx].entries, t0, t1, t2, count); len(sel) == count {
				break
			}
		}
	}
	t.scratch = sel
	return sel
}

// takeBucket merges one bucket's entries into the nearest-first selection
// sel, holding at most limit: each entry is insertion-sorted into place by
// its distance lanes from the target (t0, t1, t2). Every earlier bucket of
// the walk is nearer, so the shift stays within this bucket's run.
func takeBucket(sel []pick, entries []bucketEntry, t0, t1 uint64, t2 uint32, limit int) []pick {
	for ei := range entries {
		p := pick{d0: entries[ei].l0 ^ t0, e: &entries[ei]}
		if len(sel) == limit {
			// Full mid-bucket: the newcomer displaces the farthest kept
			// entry (necessarily from this bucket) or is dropped.
			if !sel[limit-1].farther(p, t1, t2) {
				continue
			}
			sel = sel[:limit-1]
		}
		sel = append(sel, p)
		j := len(sel) - 1
		for j > 0 && sel[j-1].farther(p, t1, t2) {
			sel[j] = sel[j-1]
			j--
		}
		sel[j] = p
	}
	return sel
}

// farther orders picks by distance, larger first. The top lanes decide all
// but IDs sharing 64 leading bits, which fall through to the lower lanes.
func (a pick) farther(b pick, t1 uint64, t2 uint32) bool {
	if a.d0 != b.d0 {
		return a.d0 > b.d0
	}
	if a1, b1 := a.e.l1^t1, b.e.l1^t1; a1 != b1 {
		return a1 > b1
	}
	return a.e.l2^t2 > b.e.l2^t2
}

// Len returns the number of tracked contacts.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for i := range t.buckets {
		n += len(t.buckets[i].entries)
	}
	return n
}

// Each calls fn for every tracked contact, bucket order, least-recently-seen
// first within a bucket. fn runs under the table lock and must not call back
// into the table; it is a diagnostic hook (route audits), not a query path.
func (t *Table) Each(fn func(Contact)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.buckets {
		for _, e := range t.buckets[i].entries {
			fn(e.Contact)
		}
	}
}

// Contains reports whether the table currently tracks id.
func (t *Table) Contains(id ID) bool {
	idx, ok := t.self.BucketIndex(id)
	if !ok {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.buckets[idx].entries {
		if e.ID == id {
			return true
		}
	}
	return false
}
