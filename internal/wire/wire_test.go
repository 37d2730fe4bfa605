package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"lcm/internal/hashchain"
)

func TestInvokeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		msg  Invoke
	}{
		{name: "zero", msg: Invoke{}},
		{name: "typical", msg: Invoke{
			ClientID: 7,
			TC:       42,
			HC:       hashchain.Extend(hashchain.Initial(), []byte("x"), 1, 7),
			Op:       []byte("PUT k v"),
		}},
		{name: "retry", msg: Invoke{ClientID: 1, TC: 9, Op: []byte("GET k"), Retry: true}},
		{name: "empty op", msg: Invoke{ClientID: 3, TC: 1}},
		{name: "large op", msg: Invoke{ClientID: 2, Op: bytes.Repeat([]byte{0xEE}, 4096)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := DecodeInvoke(tt.msg.Encode())
			if err != nil {
				t.Fatalf("DecodeInvoke: %v", err)
			}
			if got.ClientID != tt.msg.ClientID || got.TC != tt.msg.TC ||
				got.HC != tt.msg.HC || got.Retry != tt.msg.Retry ||
				!bytes.Equal(got.Op, tt.msg.Op) {
				t.Fatalf("round trip mismatch: got %+v want %+v", got, tt.msg)
			}
		})
	}
}

func TestReplyRoundTrip(t *testing.T) {
	msg := Reply{
		T:      101,
		H:      hashchain.Extend(hashchain.Initial(), []byte("op"), 101, 4),
		Result: []byte("value-bytes"),
		Q:      97,
		HCPrev: hashchain.Extend(hashchain.Initial(), []byte("prev"), 99, 4),
	}
	got, err := DecodeReply(msg.Encode())
	if err != nil {
		t.Fatalf("DecodeReply: %v", err)
	}
	if got.T != msg.T || got.H != msg.H || got.Q != msg.Q ||
		got.HCPrev != msg.HCPrev || !bytes.Equal(got.Result, msg.Result) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, msg)
	}
}

// Sec. 6.3: the LCM metadata added to an invocation is constant (45 bytes)
// regardless of the operation size.
func TestInvokeOverheadIsConstant45(t *testing.T) {
	if InvokeOverhead != 45 {
		t.Fatalf("InvokeOverhead = %d, want 45 (paper Sec. 6.3)", InvokeOverhead)
	}
	for _, n := range []int{0, 100, 500, 1000, 2500} {
		m := Invoke{ClientID: 1, TC: 5, Op: make([]byte, n)}
		// Encoded layout: tag(1) + metadata(45) + op length prefix(4) + op.
		if got := len(m.Encode()) - n - 1 - 4; got != InvokeOverhead {
			t.Fatalf("invoke metadata for %d-byte op = %d, want %d", n, got, InvokeOverhead)
		}
	}
}

func TestReplyOverheadIsConstant(t *testing.T) {
	var sizes []int
	for _, n := range []int{0, 100, 2500} {
		m := Reply{T: 1, Result: make([]byte, n)}
		sizes = append(sizes, len(m.Encode())-n)
	}
	for _, s := range sizes {
		if s != sizes[0] {
			t.Fatalf("reply overhead varies with result size: %v", sizes)
		}
	}
	if got := sizes[0] - 1 - 4; got != ReplyOverhead {
		t.Fatalf("reply metadata = %d, want %d", sizes[0]-1-4, ReplyOverhead)
	}
}

func TestDecodeRejectsWrongTag(t *testing.T) {
	inv := (&Invoke{ClientID: 1}).Encode()
	if _, err := DecodeReply(inv); err == nil {
		t.Fatal("DecodeReply accepted an INVOKE message")
	}
	rep := (&Reply{T: 1}).Encode()
	if _, err := DecodeInvoke(rep); err == nil {
		t.Fatal("DecodeInvoke accepted a REPLY message")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := (&Invoke{ClientID: 1, TC: 2, Op: []byte("abcdef")}).Encode()
	for n := 0; n < len(full); n++ {
		if _, err := DecodeInvoke(full[:n]); err == nil {
			t.Fatalf("DecodeInvoke accepted %d/%d-byte prefix", n, len(full))
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	full := (&Invoke{ClientID: 1, Op: []byte("op")}).Encode()
	if _, err := DecodeInvoke(append(full, 0x00)); err == nil {
		t.Fatal("DecodeInvoke accepted trailing bytes")
	}
}

func TestVarLengthLieRejected(t *testing.T) {
	w := NewWriter(16)
	w.U8(TagInvoke)
	w.U32(1) // client
	w.U64(0) // tc
	w.Bytes32([32]byte{})
	w.Bool(false)
	w.U32(1 << 30) // claimed op length far beyond the buffer
	if _, err := DecodeInvoke(w.Bytes()); err == nil {
		t.Fatal("DecodeInvoke accepted a lying length prefix")
	}
}

func TestReaderVarReturnsCopy(t *testing.T) {
	w := NewWriter(8)
	w.Var([]byte{1, 2, 3})
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.Var()
	buf[4] = 99 // mutate the underlying buffer after decode
	if got[0] != 1 {
		t.Fatal("Var returned aliased memory")
	}
}

// Property: Invoke encode/decode round-trips for arbitrary field values.
func TestQuickInvokeRoundTrip(t *testing.T) {
	check := func(id uint32, tc uint64, hc [32]byte, op []byte, retry bool) bool {
		m := Invoke{ClientID: id, TC: tc, HC: hc, Op: op, Retry: retry}
		got, err := DecodeInvoke(m.Encode())
		if err != nil {
			return false
		}
		return got.ClientID == id && got.TC == tc && got.HC == hashchain.Value(hc) &&
			bytes.Equal(got.Op, op) && got.Retry == retry
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Reply encode/decode round-trips for arbitrary field values.
func TestQuickReplyRoundTrip(t *testing.T) {
	check := func(seq, q uint64, h, hp [32]byte, result []byte) bool {
		m := Reply{T: seq, H: h, Result: result, Q: q, HCPrev: hp}
		got, err := DecodeReply(m.Encode())
		if err != nil {
			return false
		}
		return got.T == seq && got.Q == q && got.H == hashchain.Value(h) &&
			got.HCPrev == hashchain.Value(hp) && bytes.Equal(got.Result, result)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestWriterResetKeepsCapacity(t *testing.T) {
	w := NewWriter(8)
	w.U64(42)
	w.Var([]byte("payload"))
	if w.Len() != 19 {
		t.Fatalf("Len = %d, want 19", w.Len())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Fatalf("Len after Reset = %d", w.Len())
	}
	w.U32(7)
	if got := NewReader(w.Bytes()).U32(); got != 7 {
		t.Fatalf("reuse after Reset = %d, want 7", got)
	}
}

func TestWriterPoolRoundtrip(t *testing.T) {
	w := GetWriter(64)
	w.U64(1)
	w.Var([]byte("x"))
	if w.Len() != 13 {
		t.Fatalf("Len = %d", w.Len())
	}
	PutWriter(w)
	w2 := GetWriter(16)
	if w2.Len() != 0 {
		t.Fatalf("pooled writer not reset: Len = %d", w2.Len())
	}
	PutWriter(w2)
}

func TestWriterSteadyStateAllocs(t *testing.T) {
	payload := make([]byte, 512)
	allocs := testing.AllocsPerRun(1000, func() {
		w := GetWriter(1024)
		w.U8(1)
		w.U32(2)
		w.Var(payload)
		_ = w.Bytes()
		PutWriter(w)
	})
	if allocs > 0 {
		t.Fatalf("steady-state encode allocates %.1f times per op, want 0", allocs)
	}
}

// Count admits a count only when the bytes left can hold that many
// elements of the stated minimum size; Fail keeps the first error; a view
// never reaches past its own bytes.
func TestReaderCountFailAndViews(t *testing.T) {
	w := NewWriter(0)
	w.U32(3)
	w.Pad(3 * 8)
	if n := NewReader(w.Bytes()).Count(8); n != 3 {
		t.Fatalf("Count(8) over 3 × 8 bytes = %d, want 3", n)
	}
	r := NewReader(w.Bytes())
	if n := r.Count(9); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("Count(9) over 3 × 8 bytes = %d, %v; want 0, ErrTruncated", n, r.Err())
	}
	custom := errors.New("out of order")
	r.Fail(custom)
	if !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("Fail replaced the first error: %v", r.Done())
	}
	r = NewReader(w.Bytes())
	r.Fail(custom)
	if !errors.Is(r.Done(), custom) || r.U32() != 0 {
		t.Fatalf("after Fail: Done = %v", r.Done())
	}

	w = NewWriter(0)
	w.Var([]byte("ab"))
	w.Var([]byte("cd"))
	r = NewReader(w.Bytes())
	first := r.VarView()
	_ = append(first, 'X')
	if second := r.VarView(); string(second) != "cd" {
		t.Fatalf("an append to the first view overwrote the second: %q", second)
	}
}
