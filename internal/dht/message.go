package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"selfemerge/internal/transport"
)

// Kind enumerates the wire message types.
type Kind uint8

// Message kinds. Request/response pairs share an RPCID.
const (
	KindPing Kind = iota + 1
	KindPong
	KindFindNode
	KindFindNodeResp
	KindStore
	KindStoreAck
	KindFindValue
	KindFindValueResp
	KindApp
	KindAppAck
)

// String names the kind for logs.
func (k Kind) String() string {
	names := [...]string{"?", "PING", "PONG", "FIND_NODE", "FIND_NODE_RESP",
		"STORE", "STORE_ACK", "FIND_VALUE", "FIND_VALUE_RESP", "APP", "APP_ACK"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

const (
	wireMagic   = 0x5345 // "SE"
	wireVersion = 1
	maxContacts = 64
	maxValue    = transport.MaxDatagram - 256
)

// ErrWire is returned for any malformed datagram.
var ErrWire = errors.New("dht: malformed message")

// Message is the single wire envelope for all DHT traffic.
type Message struct {
	Kind  Kind
	RPCID uint64
	From  Contact

	Target   ID        // FindNode / FindValue: the searched identifier
	Contacts []Contact // FindNodeResp / FindValueResp: closest contacts
	Key      ID        // Store / FindValue(Resp): value key
	Value    []byte    // Store / FindValueResp(found): value bytes
	TTL      time.Duration
	Found    bool   // FindValueResp: value present
	App      []byte // App: opaque protocol payload
}

// Encode renders the wire form into a fresh buffer.
func (m Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, 64+len(m.Value)+len(m.App)+len(m.Contacts)*48))
}

// AppendEncode appends the wire form to buf and returns the extended slice —
// the allocation-free form for senders that recycle wire buffers. The
// encoding is byte-identical to Encode.
func (m Message) AppendEncode(buf []byte) ([]byte, error) {
	if len(m.Contacts) > maxContacts {
		return nil, fmt.Errorf("dht: %d contacts exceeds wire limit", len(m.Contacts))
	}
	if len(m.Value) > maxValue || len(m.App) > maxValue {
		return nil, fmt.Errorf("dht: payload exceeds wire limit")
	}
	buf = binary.BigEndian.AppendUint16(buf, wireMagic)
	buf = append(buf, wireVersion, byte(m.Kind))
	buf = binary.BigEndian.AppendUint64(buf, m.RPCID)
	buf = append(buf, m.From.ID[:]...)
	buf = appendBytes(buf, []byte(m.From.Addr))
	buf = append(buf, m.Target[:]...)
	buf = append(buf, m.Key[:]...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(m.TTL))
	if m.Found {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(len(m.Contacts)))
	for _, c := range m.Contacts {
		buf = append(buf, c.ID[:]...)
		buf = appendBytes(buf, []byte(c.Addr))
	}
	buf = appendBytes32(buf, m.Value)
	buf = appendBytes32(buf, m.App)
	return buf, nil
}

// DecodeMessage parses a wire datagram. The Value, App and contact address
// fields alias data, so they are valid only as long as the input buffer is.
func DecodeMessage(data []byte) (Message, error) {
	var m Message
	if err := DecodeMessageInto(&m, data); err != nil {
		return Message{}, err
	}
	return m, nil
}

// DecodeMessageInto parses a wire datagram into m, reusing m's Contacts
// backing array — the allocation-free form for receive loops that recycle a
// scratch Message. All other fields are overwritten; on error m is left in
// an unspecified state. Like DecodeMessage, byte-slice fields alias data.
func DecodeMessageInto(m *Message, data []byte) error {
	return decodeMessageInto(m, data, nil)
}

// decodeMessageInto is the decode core. A nil intern is the plain form:
// every address field converts its bytes. A non-nil intern is the receive-
// loop form: contact addresses come from the interner, sparing one string
// allocation per contact per datagram, and the receive loop trusts the
// socket-level source address over the claimed one — so From.Addr is left
// empty for the caller to fill, neither converting the claimed bytes (an
// allocation per datagram) nor admitting them into the bounded interner
// (which a flood of forged From addresses could otherwise fill, disabling
// interning for legitimate contact addresses).
func decodeMessageInto(m *Message, data []byte, intern *AddrInterner) error {
	r := wireReader{buf: data}
	magic, err := r.uint16()
	if err != nil || magic != wireMagic {
		return ErrWire
	}
	version, err := r.byte()
	if err != nil || version != wireVersion {
		return ErrWire
	}
	kindByte, err := r.byte()
	if err != nil {
		return ErrWire
	}
	m.Kind = Kind(kindByte)
	if m.Kind < KindPing || m.Kind > KindAppAck {
		return ErrWire
	}
	if m.RPCID, err = r.uint64(); err != nil {
		return ErrWire
	}
	if m.From.ID, err = r.id(); err != nil {
		return ErrWire
	}
	addr, err := r.bytes16()
	if err != nil {
		return ErrWire
	}
	if intern == nil {
		m.From.Addr = transport.Addr(addr)
	} else {
		m.From.Addr = ""
	}
	if m.Target, err = r.id(); err != nil {
		return ErrWire
	}
	if m.Key, err = r.id(); err != nil {
		return ErrWire
	}
	ttl, err := r.uint64()
	if err != nil {
		return ErrWire
	}
	m.TTL = time.Duration(ttl)
	foundByte, err := r.byte()
	if err != nil {
		return ErrWire
	}
	m.Found = foundByte == 1
	contactCount, err := r.byte()
	if err != nil || int(contactCount) > maxContacts {
		return ErrWire
	}
	m.Contacts = m.Contacts[:0]
	if n := int(contactCount); cap(m.Contacts) < n {
		m.Contacts = make([]Contact, 0, n)
	}
	for i := 0; i < int(contactCount); i++ {
		var c Contact
		if c.ID, err = r.id(); err != nil {
			return ErrWire
		}
		caddr, err := r.bytes16()
		if err != nil {
			return ErrWire
		}
		c.Addr = intern.Intern(caddr)
		m.Contacts = append(m.Contacts, c)
	}
	if m.Value, err = r.bytes32(); err != nil {
		return ErrWire
	}
	if m.App, err = r.bytes32(); err != nil {
		return ErrWire
	}
	if r.remaining() != 0 {
		return ErrWire
	}
	return nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b)))
	return append(buf, b...)
}

func appendBytes32(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.buf) - r.off }

func (r *wireReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrWire
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) uint16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, ErrWire
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *wireReader) uint64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrWire
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *wireReader) id() (ID, error) {
	if r.remaining() < IDBytes {
		return ID{}, ErrWire
	}
	var id ID
	copy(id[:], r.buf[r.off:])
	r.off += IDBytes
	return id, nil
}

func (r *wireReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, ErrWire
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *wireReader) bytes16() ([]byte, error) {
	n, err := r.uint16()
	if err != nil {
		return nil, err
	}
	return r.take(int(n))
}

func (r *wireReader) bytes32() ([]byte, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if n > maxValue {
		return nil, ErrWire
	}
	return r.take(int(n))
}

func (r *wireReader) uint32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrWire
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}
