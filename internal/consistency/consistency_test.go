package consistency

import (
	"errors"
	"testing"

	"lcm/internal/hashchain"
	"lcm/internal/kvs"
)

// history builds a linear history of KVS ops, returning events per client
// as a correct enclave would have produced them.
type history struct {
	chain hashchain.Value
	seq   uint64
	store *kvs.Store
}

func newHistory() *history {
	return &history{chain: hashchain.Initial(), store: kvs.New()}
}

func (h *history) step(t *testing.T, client uint32, op []byte, stable uint64) Event {
	t.Helper()
	h.seq++
	result, err := h.store.Apply(op)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	h.chain = hashchain.Extend(h.chain, op, h.seq, client)
	return Event{
		Client: client,
		Seq:    h.seq,
		Stable: stable,
		Op:     op,
		Result: result,
		Chain:  h.chain,
	}
}

func mustPass(t *testing.T, log *Log) {
	t.Helper()
	if err := log.Check(kvs.Factory()); err != nil {
		t.Fatalf("Check rejected a fork-linearizable history: %v", err)
	}
}

func mustFail(t *testing.T, log *Log, rule string) {
	t.Helper()
	err := log.Check(kvs.Factory())
	if err == nil {
		t.Fatalf("Check accepted a history violating %s", rule)
	}
	var v *ViolationError
	if !errors.As(err, &v) {
		t.Fatalf("Check returned %v, want *ViolationError", err)
	}
	if v.Rule != rule {
		t.Fatalf("Check flagged rule %q, want %q (%v)", v.Rule, rule, err)
	}
}

func TestEmptyAndSingleOpHistoriesPass(t *testing.T) {
	mustPass(t, NewLog())

	log := NewLog()
	h := newHistory()
	log.Record(h.step(t, 1, kvs.Put("k", "v"), 0))
	mustPass(t, log)
}

func TestLinearHistoryPasses(t *testing.T) {
	log := NewLog()
	h := newHistory()
	log.Record(h.step(t, 1, kvs.Put("k", "v1"), 0))
	log.Record(h.step(t, 2, kvs.Get("k"), 0))
	log.Record(h.step(t, 1, kvs.Put("k", "v2"), 1))
	log.Record(h.step(t, 2, kvs.Get("k"), 2))
	mustPass(t, log)
}

func TestForkedButNeverJoinedPasses(t *testing.T) {
	log := NewLog()
	// Common prefix.
	h := newHistory()
	pre := h.step(t, 1, kvs.Put("k", "v0"), 0)
	log.Record(pre)

	// Fork A continues for client 1; fork B diverges for client 2.
	forkA := *h
	storeA := kvs.New()
	storeA.Restore(mustSnap(t, h.store))
	forkA.store = storeA

	forkB := *h
	storeB := kvs.New()
	storeB.Restore(mustSnap(t, h.store))
	forkB.store = storeB

	log.Record(forkA.step(t, 1, kvs.Put("k", "a"), 0))
	log.Record(forkB.step(t, 2, kvs.Put("k", "b"), 0))
	log.Record(forkA.step(t, 1, kvs.Get("k"), 0))
	log.Record(forkB.step(t, 2, kvs.Get("k"), 0))
	mustPass(t, log)
}

func mustSnap(t *testing.T, s *kvs.Store) []byte {
	t.Helper()
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestJoinAfterForkDetected(t *testing.T) {
	log := NewLog()
	h := newHistory()
	base := h.step(t, 1, kvs.Put("k", "v0"), 0)
	log.Record(base)

	// Clients 1 and 2 observe different seq-2 operations (fork)...
	chainA := hashchain.Extend(base.Chain, kvs.Put("k", "a"), 2, 1)
	chainB := hashchain.Extend(base.Chain, kvs.Put("k", "b"), 2, 2)
	log.Record(Event{Client: 1, Seq: 2, Op: kvs.Put("k", "a"),
		Result: okResult(t), Chain: chainA})
	log.Record(Event{Client: 2, Seq: 2, Op: kvs.Put("k", "b"),
		Result: okResult(t), Chain: chainB})
	// ...but then agree again at seq 3 — the forbidden join.
	chainJoin := hashchain.Extend(chainA, kvs.Get("k"), 3, 1)
	log.Record(Event{Client: 1, Seq: 3, Op: kvs.Get("k"),
		Result: okResult(t), Chain: chainJoin})
	log.Record(Event{Client: 2, Seq: 3, Op: kvs.Get("k"),
		Result: okResult(t), Chain: chainJoin})
	mustFail(t, log, "no-join-after-fork")
}

func okResult(t *testing.T) []byte {
	t.Helper()
	s := kvs.New()
	res, err := s.Apply(kvs.Put("k", "x"))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSequenceRegressionDetected(t *testing.T) {
	log := NewLog()
	h := newHistory()
	e1 := h.step(t, 1, kvs.Put("k", "v1"), 0)
	e2 := h.step(t, 1, kvs.Put("k", "v2"), 0)
	log.Record(e2) // recorded out of order: client saw seq 2 then seq 1
	log.Record(e1)
	mustFail(t, log, "sequence-monotonicity")
}

func TestStabilityRegressionDetected(t *testing.T) {
	log := NewLog()
	h := newHistory()
	e1 := h.step(t, 1, kvs.Put("k", "v1"), 1)
	e2 := h.step(t, 1, kvs.Put("k", "v2"), 0) // stable regressed
	log.Record(e1)
	log.Record(e2)
	mustFail(t, log, "stability-monotonicity")
}

func TestStabilityAheadOfSeqDetected(t *testing.T) {
	log := NewLog()
	h := newHistory()
	e := h.step(t, 1, kvs.Put("k", "v"), 0)
	e.Stable = e.Seq + 1
	log.Record(e)
	mustFail(t, log, "stability-bound")
}

func TestDuplicateSeqWithinForkDetected(t *testing.T) {
	log := NewLog()
	h := newHistory()
	base := h.step(t, 1, kvs.Put("k", "v0"), 0)
	log.Record(base)
	// Two clients claim seq 2 with the SAME chain value (same fork) but
	// different ops — impossible in one linear history.
	chain := hashchain.Extend(base.Chain, kvs.Put("k", "a"), 2, 1)
	log.Record(Event{Client: 1, Seq: 2, Op: kvs.Put("k", "a"), Result: okResult(t), Chain: chain})
	log.Record(Event{Client: 2, Seq: 2, Op: kvs.Put("k", "b"), Result: okResult(t), Chain: chain})
	mustFail(t, log, "unique-sequence")
}

func TestResultDivergenceDetected(t *testing.T) {
	log := NewLog()
	h := newHistory()
	log.Record(h.step(t, 1, kvs.Put("k", "v1"), 0))
	e := h.step(t, 2, kvs.Get("k"), 0)
	// The server lied about the read result.
	forged := kvs.New()
	forged.Apply(kvs.Put("k", "forged"))
	e.Result, _ = forged.Apply(kvs.Get("k"))
	log.Record(e)
	mustFail(t, log, "replay")
}

func TestChainMismatchDetected(t *testing.T) {
	log := NewLog()
	h := newHistory()
	e := h.step(t, 1, kvs.Put("k", "v"), 0)
	e.Chain = hashchain.Extend(e.Chain, []byte("tamper"), 99, 9)
	log.Record(e)
	mustFail(t, log, "hash-chain")
}

func TestMajorityStabilityViolationDetected(t *testing.T) {
	log := NewLog()
	h := newHistory()
	// Three clients; only client 1 ever operates, yet it claims its op
	// became majority-stable. Clients 2 and 3 exist (they appear with
	// one early op each... no — they must appear to count toward n).
	log.Record(h.step(t, 1, kvs.Put("k", "v1"), 0))
	log.Record(h.step(t, 2, kvs.Get("k"), 0))
	log.Record(h.step(t, 3, kvs.Get("k"), 0))
	// Client 1 claims seq 4 is stable although clients 2 and 3 never
	// advanced past seqs 2 and 3.
	e := h.step(t, 1, kvs.Put("k", "v2"), 0)
	e.Stable = e.Seq
	log.Record(e)
	mustFail(t, log, "majority-stability")
}

// With four clients a stable claim needs three witnesses: a client on
// the claimant's fork whose view reaches the claimed seq, the one that
// reaches exactly it included. One witness short fails.
func TestMajorityStabilityOneWitnessShort(t *testing.T) {
	for _, tc := range []struct {
		stable uint64
		pass   bool
	}{{4, true}, {5, false}} {
		log := NewLog()
		h := newHistory()
		for c := uint32(1); c <= 4; c++ {
			log.Record(h.step(t, c, kvs.Put("k", "v"), 0)) // seqs 1–4
		}
		log.Record(h.step(t, 1, kvs.Get("k"), 0)) // seq 5
		// Views reach 5, 6, 3 and 4: seq 4 has three witnesses, seq 5 two.
		log.Record(h.step(t, 2, kvs.Get("k"), tc.stable)) // seq 6
		if tc.pass {
			mustPass(t, log)
		} else {
			mustFail(t, log, "majority-stability")
		}
	}
}

func TestMajorityStabilityHonoredPasses(t *testing.T) {
	log := NewLog()
	h := newHistory()
	log.Record(h.step(t, 1, kvs.Put("a", "1"), 0)) // seq 1
	log.Record(h.step(t, 2, kvs.Put("b", "2"), 0)) // seq 2
	log.Record(h.step(t, 1, kvs.Put("c", "3"), 0)) // seq 3
	// Both clients reached ≥ seq 2; claiming seq 1 stable is legitimate
	// for n=2 (majority = both).
	log.Record(h.step(t, 2, kvs.Put("d", "4"), 1)) // seq 4, stable 1
	mustPass(t, log)
}

func TestGapToleratedInReplay(t *testing.T) {
	// Client 2's records are missing (crashed harness), so the fork has
	// gaps. The prefix before the gap must still validate, and the gap
	// itself must not be flagged.
	log := NewLog()
	h := newHistory()
	log.Record(h.step(t, 1, kvs.Put("k", "v1"), 0)) // seq 1 recorded
	_ = h.step(t, 2, kvs.Put("k", "v2"), 0)         // seq 2 NOT recorded
	log.Record(h.step(t, 1, kvs.Get("k"), 0))       // seq 3 recorded
	mustPass(t, log)
}

func TestEventsAreCopied(t *testing.T) {
	log := NewLog()
	op := kvs.Put("k", "v")
	log.Record(Event{Client: 1, Seq: 1, Op: op, Result: []byte{1}})
	op[0] = 0xFF
	if log.Events()[0].Op[0] == 0xFF {
		t.Fatal("Record aliased the caller's op buffer")
	}
}

func TestForksPartitionsCleanAndForkedHistories(t *testing.T) {
	// Clean history: one fork group holding both clients.
	clean := NewLog()
	h := newHistory()
	clean.Record(h.step(t, 1, kvs.Put("k", "v1"), 0))
	clean.Record(h.step(t, 2, kvs.Get("k"), 0))
	forks := clean.Forks()
	if len(forks) != 1 || len(forks[0]) != 2 {
		t.Fatalf("clean history forks = %v, want one group of two", forks)
	}

	// Forked history: both branches grow from the same prefix, then
	// diverge at the same sequence numbers.
	forked := NewLog()
	base := newHistory()
	forked.Record(base.step(t, 1, kvs.Put("k", "base"), 0))
	b1, b2 := *base, *base
	b1.store, b2.store = kvs.New(), kvs.New()
	if err := b1.store.Restore(mustSnapshot(t, base.store)); err != nil {
		t.Fatal(err)
	}
	if err := b2.store.Restore(mustSnapshot(t, base.store)); err != nil {
		t.Fatal(err)
	}
	forked.Record(b1.step(t, 1, kvs.Put("k", "left"), 0))
	forked.Record(b2.step(t, 2, kvs.Put("k", "right"), 0))
	mustPass(t, forked)
	forks = forked.Forks()
	if len(forks) != 2 {
		t.Fatalf("forked history forks = %v, want two groups", forks)
	}
}

func mustSnapshot(t *testing.T, s *kvs.Store) []byte {
	t.Helper()
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
