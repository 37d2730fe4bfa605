package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"lcm/internal/hashchain"
)

func TestMajorityStableEmpty(t *testing.T) {
	if got := (vmap{}).majorityStable(); got != 0 {
		t.Fatalf("majorityStable(empty) = %d", got)
	}
}

func TestMajorityStableSingleClient(t *testing.T) {
	// One client is a majority of itself: its own acknowledged operation
	// is immediately majority-stable.
	v := newVMap([]uint32{1})
	if got := v.majorityStable(); got != 0 {
		t.Fatalf("fresh single client q = %d", got)
	}
	v[1].TA = 7
	if got := v.majorityStable(); got != 7 {
		t.Fatalf("single client q = %d, want 7", got)
	}
}

func TestMajorityStableTwoClients(t *testing.T) {
	// n=2: a majority (>1) is both clients, so q = min(TA1, TA2).
	v := newVMap([]uint32{1, 2})
	v[1].TA = 9
	if got := v.majorityStable(); got != 0 {
		t.Fatalf("q = %d, want 0 (second client acknowledged nothing)", got)
	}
	v[2].TA = 4
	if got := v.majorityStable(); got != 4 {
		t.Fatalf("q = %d, want 4", got)
	}
}

func TestMajorityStableThreeClients(t *testing.T) {
	// n=3: q is the 2nd largest acknowledged number.
	v := newVMap([]uint32{1, 2, 3})
	v[1].TA, v[2].TA, v[3].TA = 5, 3, 0
	if got := v.majorityStable(); got != 3 {
		t.Fatalf("q = %d, want 3", got)
	}
}

func TestMajorityStablePaperShape(t *testing.T) {
	tests := []struct {
		name string
		acks []uint64
		want uint64
	}{
		{name: "n=4 needs 3 witnesses", acks: []uint64{10, 8, 2, 0}, want: 2},
		{name: "n=5 median+", acks: []uint64{9, 7, 5, 3, 1}, want: 5},
		{name: "all equal", acks: []uint64{6, 6, 6}, want: 6},
		{name: "one straggler", acks: []uint64{100, 100, 100, 100, 0}, want: 100},
		{name: "all zero", acks: []uint64{0, 0, 0}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ids := make([]uint32, len(tt.acks))
			for i := range ids {
				ids[i] = uint32(i + 1)
			}
			v := newVMap(ids)
			for i, a := range tt.acks {
				v[uint32(i+1)].TA = a
			}
			if got := v.majorityStable(); got != tt.want {
				t.Fatalf("q = %d, want %d", got, tt.want)
			}
		})
	}
}

// Property: majorityStable conforms to its definition — it is the maximum
// value a such that more than n/2 clients have TA ≥ a, restricted to
// acknowledged numbers (plus zero).
func TestQuickMajorityStableDefinition(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 12 {
			raw = raw[:12]
		}
		ids := make([]uint32, len(raw))
		for i := range ids {
			ids[i] = uint32(i + 1)
		}
		v := newVMap(ids)
		for i, a := range raw {
			v[uint32(i+1)].TA = uint64(a)
		}
		got := v.majorityStable()

		n := len(raw)
		witnesses := func(a uint64) int {
			c := 0
			for _, e := range v {
				if e.TA >= a {
					c++
				}
			}
			return c
		}
		// got must itself be majority-witnessed.
		if 2*witnesses(got) <= n {
			return false
		}
		// No acknowledged value above got may be majority-witnessed.
		for _, e := range v {
			if e.TA > got && 2*witnesses(e.TA) > n {
				return false
			}
		}
		// got is one of the acknowledged values (or zero).
		if got != 0 {
			found := false
			for _, e := range v {
				if e.TA == got {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: majorityStable never decreases as acknowledgements advance.
func TestQuickMajorityStableMonotonic(t *testing.T) {
	check := func(increments []uint8) bool {
		v := newVMap([]uint32{1, 2, 3, 4, 5})
		prev := v.majorityStable()
		for i, inc := range increments {
			id := uint32(i%5 + 1)
			v[id].TA += uint64(inc)
			q := v.majorityStable()
			if q < prev {
				return false
			}
			prev = q
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVMapCloneIsDeep(t *testing.T) {
	v := newVMap([]uint32{1})
	v[1].T = 5
	v[1].Reply = testReply("r")
	cp := v.clone()
	cp[1].T = 99
	cp[1].Reply[0] = 42
	if v[1].T != 5 || v[1].Reply[0] != 0 {
		t.Fatal("clone shares memory with the original")
	}
}

func TestClientIDsSorted(t *testing.T) {
	v := newVMap([]uint32{5, 1, 3})
	ids := v.clientIDs()
	want := []uint32{1, 3, 5}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("clientIDs = %v, want %v", ids, want)
		}
	}
}

// testReply is a cached reply with a zero nonce, tag, Q and BeaconSeq and
// the given result.
func testReply(result string) cachedReply {
	return append(make(cachedReply, cachedReplyMin), result...)
}

// goldenTrustedState is the state the golden round-trip test encodes; the
// decoder's fuzz target starts from it too.
func goldenTrustedState() *trustedState {
	v := newVMap([]uint32{1, 2})
	v[1].TA, v[1].T = 3, 4
	v[1].HA = hashchain.Extend(hashchain.Initial(), []byte("a"), 3, 1)
	v[1].H = hashchain.Extend(hashchain.Initial(), []byte("b"), 4, 1)
	v[1].Reply = testReply("cached-reply")
	return &trustedState{
		AdminSeq: 7,
		KC:       make([]byte, 16),
		V:        v,
		Snapshot: []byte("service-snapshot"),
		Head:     [32]byte{0: 0xc7, 31: 0x5e},
	}
}

func TestStateEncodeDecodeRoundTrip(t *testing.T) {
	state := goldenTrustedState()
	v := state.V
	got, err := decodeTrustedState(state.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.AdminSeq != 7 || string(got.Snapshot) != "service-snapshot" || len(got.V) != 2 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	e := got.V[1]
	if e.TA != 3 || e.T != 4 || e.HA != v[1].HA || e.H != v[1].H || !bytes.Equal(e.Reply, v[1].Reply) {
		t.Fatalf("entry mismatch: %+v", e)
	}
	if got.V[2].Reply != nil {
		t.Fatal("an empty Reply must decode as nil")
	}
}

func TestStateDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeTrustedState([]byte{1, 2, 3}); err == nil {
		t.Fatal("decodeTrustedState accepted garbage")
	}
}
