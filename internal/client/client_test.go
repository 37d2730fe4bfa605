package client

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lcm/internal/aead"
	"lcm/internal/core"
	"lcm/internal/hashchain"
	"lcm/internal/transport"
	"lcm/internal/wire"
)

// stubServer implements just enough of the host protocol to exercise the
// session: it decrypts invokes, applies scripted behaviours (drop, delay,
// error) and produces protocol-correct replies.
type stubServer struct {
	t    testing.TB
	conn transport.Conn
	kc   aead.Key

	mu        sync.Mutex
	seq       uint64
	chain     hashchain.Value
	dropNext  int  // drop the next n replies
	errorNext bool // answer the next invoke with an error frame
	history   [][]byte
	staleNext int    // re-send this many ops' stale reply copies before the next reply
	holdNext  bool   // hold the next reply back until the following invoke
	held      []byte // the held reply frame
	retries   int    // invokes that carried the retry marker
	onInvoke  func() // called as each invoke arrives, before its reply
	beats     int    // heartbeats answered
	beatsTo   int    // close beatsIn once beats reaches this count
	beatsIn   chan struct{}

	wg sync.WaitGroup
}

func newStubPair(t testing.TB) (*stubServer, transport.Conn) {
	t.Helper()
	clientConn, serverConn := transport.Pipe()
	return startStub(t, clientConn, serverConn), clientConn
}

// newTCPStubPair is newStubPair over a loopback TCP connection.
func newTCPStubPair(t testing.TB) (*stubServer, transport.Conn) {
	t.Helper()
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan transport.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	clientConn, err := transport.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	serverConn := <-accepted
	if serverConn == nil {
		t.Fatal("accept failed")
	}
	return startStub(t, clientConn, serverConn), clientConn
}

func startStub(t testing.TB, clientConn, serverConn transport.Conn) *stubServer {
	kc, err := aead.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	s := &stubServer{t: t, conn: serverConn, kc: kc}
	s.wg.Add(1)
	go s.loop()
	t.Cleanup(func() {
		serverConn.Close()
		clientConn.Close()
		s.wg.Wait()
	})
	return s
}

func (s *stubServer) loop() {
	defer s.wg.Done()
	for {
		frame, err := s.conn.Recv()
		if err != nil {
			return
		}
		kind, payload, err := wire.DecodeFrame(frame)
		if err != nil {
			continue
		}
		switch kind {
		case wire.FrameECall:
			// Echo for ECall tests (after stripping the shard byte).
			_, _, inner, err := wire.SplitShardPayload(payload)
			if err != nil {
				continue
			}
			_ = s.conn.Send(wire.OKFrame(append([]byte("ecall:"), inner...)))
		case wire.FrameInvoke:
			_, _, ct, err := wire.SplitShardPayload(payload)
			if err != nil {
				continue
			}
			s.handleInvoke(ct)
		case wire.FrameChurn:
			// Heartbeats are fire-and-forget: the host answers each with an
			// empty OK frame, as the real one does.
			_ = s.conn.Send(wire.OKFrame(nil))
			s.mu.Lock()
			if s.beats++; s.beats == s.beatsTo {
				close(s.beatsIn)
			}
			s.mu.Unlock()
		}
	}
}

func (s *stubServer) handleInvoke(ct []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	plain, err := aead.Open(s.kc, ct, []byte("lcm/msg/invoke/v1"))
	if err != nil {
		_ = s.conn.Send(wire.ErrorFrame(err))
		return
	}
	inv, err := wire.DecodeInvoke(plain)
	if err != nil {
		_ = s.conn.Send(wire.ErrorFrame(err))
		return
	}
	if s.onInvoke != nil {
		s.onInvoke()
	}
	if inv.Retry {
		s.retries++
	}
	if s.held != nil {
		// The held reply goes out late, ahead of the answer to this invoke.
		_ = s.conn.Send(s.held)
		s.held = nil
	}
	if s.errorNext {
		s.errorNext = false
		_ = s.conn.Send(wire.ErrorFrame(errors.New("injected server error")))
		return
	}
	// A retry for an op we already executed: resend the same reply shape.
	if !(inv.Retry && inv.TC < s.seq) {
		s.seq++
		s.chain = hashchain.Extend(s.chain, inv.Op, s.seq, inv.ClientID)
	}
	rep := wire.Reply{
		T:      s.seq,
		H:      s.chain,
		Result: append([]byte("result:"), inv.Op...),
		Q:      0,
		HCPrev: inv.HC,
	}
	repCT, err := aead.Seal(s.kc, rep.Encode(), []byte("lcm/msg/reply/v1"))
	if err != nil {
		s.t.Errorf("seal reply: %v", err)
		return
	}
	if s.dropNext > 0 {
		s.dropNext--
		return // reply lost
	}
	frame := wire.OKFrame(repCT)
	for ; s.staleNext > 0 && s.staleNext <= len(s.history); s.staleNext-- {
		// A duplicated-link leftover: the verbatim frame from staleNext
		// ops ago arrives ahead of the current reply.
		_ = s.conn.Send(s.history[len(s.history)-s.staleNext])
	}
	s.staleNext = 0
	s.history = append(s.history, frame)
	if s.holdNext {
		s.holdNext, s.held = false, frame
		return
	}
	_ = s.conn.Send(frame)
}

func TestSessionDoRoundTrip(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 1, srv.kc, Config{Timeout: 2 * time.Second})
	defer sess.Close()

	res, err := sess.Do([]byte("op-1"))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if string(res.Value) != "result:op-1" || res.Seq != 1 {
		t.Fatalf("result = %+v", res)
	}
	if sess.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d", sess.LastSeq())
	}
}

func TestSessionRetryAfterDroppedReply(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 1, srv.kc, Config{Timeout: 150 * time.Millisecond, Retries: 2})
	defer sess.Close()

	srv.mu.Lock()
	srv.dropNext = 1
	srv.mu.Unlock()

	start := time.Now()
	res, err := sess.Do([]byte("op"))
	if err != nil {
		t.Fatalf("Do with dropped reply: %v", err)
	}
	if res.Seq != 1 {
		t.Fatalf("seq = %d", res.Seq)
	}
	if time.Since(start) < 100*time.Millisecond {
		t.Fatal("retry happened before the timeout elapsed")
	}
}

func TestSessionAtLeastOnceFiltersOldStaleReplies(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 1, srv.kc, Config{Timeout: 2 * time.Second, AtLeastOnce: true})
	defer sess.Close()

	for i := 0; i < 3; i++ {
		if _, err := sess.Do([]byte{'o', 'p', byte('1' + i)}); err != nil {
			t.Fatalf("Do op%d: %v", i+1, err)
		}
	}

	// Duplicated-link leftovers of op1 AND op2 arrive ahead of op4's
	// reply. Only remembering the latest reply would let op1's copy
	// through to verification, poisoning the session with a spurious
	// authentication failure; the filter ring must span older ops too.
	srv.mu.Lock()
	srv.staleNext = 3
	srv.mu.Unlock()

	res, err := sess.Do([]byte("op4"))
	if err != nil {
		t.Fatalf("Do op4 with stale leftovers in flight: %v", err)
	}
	if string(res.Value) != "result:op4" || res.Seq != 4 {
		t.Fatalf("result = %+v", res)
	}
	if sess.Err() != nil {
		t.Fatalf("session poisoned: %v", sess.Err())
	}
}

func TestSessionTimeoutExhaustsRetries(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 1, srv.kc, Config{Timeout: 80 * time.Millisecond, Retries: 1})
	defer sess.Close()

	srv.mu.Lock()
	srv.dropNext = 10 // drop everything
	srv.mu.Unlock()

	if _, err := sess.Do([]byte("op")); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Do = %v, want ErrTimeout", err)
	}
	// The operation is still pending; a later Recover can complete it.
	srv.mu.Lock()
	srv.dropNext = 0
	srv.mu.Unlock()
	res, err := sess.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Seq != 1 {
		t.Fatalf("recovered seq = %d", res.Seq)
	}
}

func TestSessionServerErrorSurfaces(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 1, srv.kc, Config{Timeout: 2 * time.Second})
	defer sess.Close()

	srv.mu.Lock()
	srv.errorNext = true
	srv.mu.Unlock()

	if _, err := sess.Do([]byte("op")); err == nil {
		t.Fatal("Do succeeded despite server error frame")
	}
}

func TestSessionECall(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 1, srv.kc, Config{Timeout: 2 * time.Second})
	defer sess.Close()

	resp, err := sess.ECall([]byte("status"))
	if err != nil {
		t.Fatalf("ECall: %v", err)
	}
	if string(resp) != "ecall:status" {
		t.Fatalf("ECall response = %q", resp)
	}
}

func TestSessionStateAndResume(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 7, srv.kc, Config{Timeout: 2 * time.Second})
	if _, err := sess.Do([]byte("op-1")); err != nil {
		t.Fatal(err)
	}
	state := sess.State()
	sess.Close()

	conn2, serverConn2 := transport.Pipe()
	srv2 := &stubServer{t: t, conn: serverConn2, kc: srv.kc}
	// Continue the history where the first stub left off.
	srv2.seq, srv2.chain = srv.seq, srv.chain
	srv2.wg.Add(1)
	go srv2.loop()
	defer func() {
		serverConn2.Close()
		srv2.wg.Wait()
	}()

	resumed := Resume(conn2, state, srv.kc, Config{Timeout: 2 * time.Second})
	defer resumed.Close()
	if resumed.ID() != 7 || resumed.LastSeq() != 1 {
		t.Fatalf("resumed id=%d seq=%d", resumed.ID(), resumed.LastSeq())
	}
	res, err := resumed.Do([]byte("op-2"))
	if err != nil {
		t.Fatalf("resumed Do: %v", err)
	}
	if res.Seq != 2 {
		t.Fatalf("resumed seq = %d", res.Seq)
	}
}

func TestSessionCloseUnblocksPendingDo(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 1, srv.kc, Config{}) // no timeout: would block forever

	srv.mu.Lock()
	srv.dropNext = 10
	srv.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := sess.Do([]byte("op"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	sess.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Do returned nil after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not unblock on Close")
	}
}

func TestSessionStabilityAccessors(t *testing.T) {
	srv, conn := newStubPair(t)
	sess := New(conn, 1, srv.kc, Config{Timeout: 2 * time.Second})
	defer sess.Close()
	if sess.LastStable() != 0 || sess.IsStable(1) {
		t.Fatal("fresh session claims stability")
	}
	if sess.Err() != nil {
		t.Fatalf("fresh session Err = %v", sess.Err())
	}
	if _, err := sess.Do([]byte("op")); err != nil {
		t.Fatal(err)
	}
	if !sess.IsStable(0) {
		t.Fatal("seq 0 must always be stable")
	}
}

func TestSessionRejectsCorruptedReply(t *testing.T) {
	// A stub that flips a byte in every reply.
	kc, _ := aead.NewKey()
	clientConn, serverConn := transport.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		frame, err := serverConn.Recv()
		if err != nil {
			return
		}
		_, payload, _ := wire.DecodeFrame(frame)
		_, _, ct, _ := wire.SplitShardPayload(payload)
		// Reflect the invoke ciphertext (tampered) as the reply.
		ct[0] ^= 1
		_ = serverConn.Send(wire.OKFrame(ct))
	}()
	defer func() {
		serverConn.Close()
		wg.Wait()
	}()

	sess := New(clientConn, 1, kc, Config{Timeout: 2 * time.Second})
	defer sess.Close()
	_, err := sess.Do([]byte("op"))
	if !errors.Is(err, core.ErrViolationDetected) {
		t.Fatalf("Do with corrupted reply = %v, want violation", err)
	}
	// The session is now poisoned.
	if _, err := sess.Do([]byte("next")); !errors.Is(err, core.ErrViolationDetected) {
		t.Fatalf("Do after violation = %v", err)
	}
	if sess.Err() == nil {
		t.Fatal("Err() did not record the violation")
	}
}
