package dht

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"selfemerge/internal/sim"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

func TestAddrInternerBound(t *testing.T) {
	// A flood of unique (forged) addresses past the bound degrades to plain
	// conversion: the table neither grows nor forgets what it holds.
	const bound = 64
	in := NewAddrInterner(bound)
	first := make([]transport.Addr, bound)
	for i := range first {
		first[i] = in.Intern([]byte(fmt.Sprintf("peer-%d", i)))
	}
	if in.Len() != bound {
		t.Fatalf("Len = %d after %d distinct addresses, want %d", in.Len(), bound, bound)
	}
	slots := len(in.slots)
	for i := 0; i < 100*bound; i++ {
		raw := fmt.Sprintf("forged-%d", i)
		if got := in.Intern([]byte(raw)); string(got) != raw {
			t.Fatalf("Intern(%q) = %q past the bound", raw, got)
		}
	}
	if in.Len() != bound || len(in.slots) != slots {
		t.Fatalf("flood grew the table: Len %d, %d slots (want %d, %d)", in.Len(), len(in.slots), bound, slots)
	}
	for i, want := range first {
		if got := in.Intern([]byte(want)); unsafe.StringData(string(got)) != unsafe.StringData(string(want)) {
			t.Fatalf("peer-%d lost its canonical string after the flood", i)
		}
	}
	var none *AddrInterner
	if got := none.Intern([]byte("x")); got != "x" {
		t.Fatalf("nil interner returned %q", got)
	}
}

func TestNodesShareLoopInterner(t *testing.T) {
	// Two nodes given one interner decode the same contact address to the
	// same backing string; a node left to its own interner gets another.
	s := sim.NewSimulator()
	fab := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Seed: 1})
	shared := NewAddrInterner(DefaultInternBound)
	mk := func(name string, in *AddrInterner) *Node {
		node, err := NewNode(Config{ID: IDFromKey([]byte(name)), Endpoint: fab.Endpoint(transport.Addr(name)), Clock: s, Interner: in})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	a, b, solo := mk("a", shared), mk("b", shared), mk("solo", nil)
	wire, err := Message{
		Kind:     KindFindNodeResp,
		RPCID:    7,
		From:     Contact{ID: IDFromKey([]byte("sender")), Addr: "claimed"},
		Contacts: []Contact{{ID: IDFromKey([]byte("peer")), Addr: "peer-addr"}},
	}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded := func(n *Node) transport.Addr {
		n.handle("socket", wire)
		if len(n.rx.Contacts) != 1 || n.rx.From.Addr != "socket" {
			t.Fatalf("decode: From %q, %d contacts", n.rx.From.Addr, len(n.rx.Contacts))
		}
		return n.rx.Contacts[0].Addr
	}
	addrA, addrB, addrSolo := decoded(a), decoded(b), decoded(solo)
	if addrA != "peer-addr" || addrB != addrA || addrSolo != addrA {
		t.Fatalf("decoded %q, %q, %q", addrA, addrB, addrSolo)
	}
	if unsafe.StringData(string(addrA)) != unsafe.StringData(string(addrB)) {
		t.Fatal("nodes sharing an interner decoded distinct backing strings")
	}
	if unsafe.StringData(string(addrSolo)) == unsafe.StringData(string(addrA)) {
		t.Fatal("a node without a shared interner used the shared one")
	}
	if shared.Len() != 1 {
		t.Fatalf("shared interner holds %d addresses, want 1 (claimed From addresses stay out)", shared.Len())
	}
}
