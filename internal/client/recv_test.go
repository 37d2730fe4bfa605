package client

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"lcm/internal/transport"
)

// A reply that arrives after the timeout has fired is still the reply to
// the same operation: the session re-sends the invoke with the retry
// marker, then accepts the late original.
func TestSessionTCPDelayedReplyRetries(t *testing.T) {
	srv, conn := newTCPStubPair(t)
	sess := New(conn, 1, srv.kc, Config{Timeout: 100 * time.Millisecond, Retries: 5})
	defer sess.Close()

	// The stub holds the first reply until the retry arrives, so the
	// retry is certain and no sleep decides the order.
	srv.mu.Lock()
	srv.holdNext = true
	srv.mu.Unlock()

	res, err := sess.Do([]byte("op"))
	if err != nil {
		t.Fatalf("Do with a delayed reply: %v", err)
	}
	if string(res.Value) != "result:op" || res.Seq != 1 {
		t.Fatalf("result = %+v", res)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.retries == 0 {
		t.Fatal("the stub saw no retry")
	}
}

func TestSessionTCPCloseUnblocksPendingDo(t *testing.T) {
	srv, conn := newTCPStubPair(t)
	sess := New(conn, 1, srv.kc, Config{}) // no timeout: would block forever

	invoked := make(chan struct{})
	srv.mu.Lock()
	srv.dropNext = 10
	srv.onInvoke = func() { close(invoked) }
	srv.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		_, err := sess.Do([]byte("op"))
		done <- err
	}()
	<-invoked // the invoke is out; its reply never comes
	sess.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("Do after Close = %v, want ErrSessionClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not unblock on Close")
	}
}

// plainConn hides its connection's RecvWithin, as a foreign Conn (a
// tracing wrapper, a test double) would.
type plainConn struct{ inner transport.Conn }

func (c plainConn) Send(msg []byte) error { return c.inner.Send(msg) }
func (c plainConn) Recv() ([]byte, error) { return c.inner.Recv() }
func (c plainConn) Close() error          { return c.inner.Close() }

func TestSessionOverPlainConnTimesOutAndRetries(t *testing.T) {
	srv, conn := newTCPStubPair(t)
	before := settledGoroutines()
	sess := New(plainConn{conn}, 1, srv.kc, Config{Timeout: 100 * time.Millisecond, Retries: 5})

	srv.mu.Lock()
	srv.dropNext = 1
	srv.mu.Unlock()

	res, err := sess.Do([]byte("op"))
	if err != nil {
		t.Fatalf("Do over a plain conn with a dropped reply: %v", err)
	}
	if res.Seq != 1 {
		t.Fatalf("seq = %d", res.Seq)
	}
	srv.mu.Lock()
	retries := srv.retries
	srv.mu.Unlock()
	if retries == 0 {
		t.Fatal("the stub saw no retry")
	}
	sess.Close()
	// transport.Timed's reader goroutine is gone once Close returns.
	if n := goroutinesAfterStub(srv); n != before-1 {
		t.Fatalf("goroutines after Close = %d, want %d", n, before-1)
	}
}

// With the heartbeat tick armed, the host's empty OK acks pile up in the
// socket while the session is idle; the next operation reads past them.
func TestSessionHeartbeatAcksSkipped(t *testing.T) {
	srv, conn := newTCPStubPair(t)
	const ticks = 50
	srv.mu.Lock()
	srv.beatsTo, srv.beatsIn = ticks, make(chan struct{})
	srv.mu.Unlock()

	sess := New(conn, 1, srv.kc, Config{Timeout: 2 * time.Second, HeartbeatInterval: time.Millisecond})
	defer sess.Close()
	select {
	case <-srv.beatsIn:
	case <-time.After(10 * time.Second):
		t.Fatalf("the stub did not see %d heartbeats", ticks)
	}
	for i := 1; i <= 2; i++ {
		res, err := sess.Do([]byte("op"))
		if err != nil {
			t.Fatalf("Do %d after %d heartbeats: %v", i, ticks, err)
		}
		if res.Seq != uint64(i) {
			t.Fatalf("Do %d: seq = %d", i, res.Seq)
		}
	}
}

// A TCP session reads its replies on the calling goroutine: it starts no
// goroutine of its own and leaves none behind.
func TestSessionTCPStartsNoGoroutine(t *testing.T) {
	srv, conn := newTCPStubPair(t)
	before := settledGoroutines()
	var during []int
	srv.mu.Lock()
	srv.onInvoke = func() { during = append(during, runtime.NumGoroutine()) }
	srv.mu.Unlock()

	sess := New(conn, 1, srv.kc, Config{Timeout: 2 * time.Second})
	for i := 0; i < 3; i++ {
		if _, err := sess.Do([]byte("op")); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	after := goroutinesAfterStub(srv)
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i, n := range during {
		if n != before {
			t.Fatalf("goroutines during Do %d = %d, want %d", i+1, n, before)
		}
	}
	if after != before-1 {
		t.Fatalf("goroutines after Close = %d, want %d", after, before-1)
	}
}

// goroutinesAfterStub waits for the stub's loop, which exits once the
// session's Close reaches it, and returns the settled goroutine count
// then: the count before the session, less the stub's loop.
func goroutinesAfterStub(srv *stubServer) int {
	srv.wg.Wait()
	return settledGoroutines()
}

// settledGoroutines returns the goroutine count once earlier tests'
// exiting goroutines are gone: two readings 10 ms apart agree.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// BenchmarkSessionDoTCP is one session's closed-loop Do against the stub
// server over loopback TCP: the client half of a round trip (seal,
// framing, the wait for the reply, verify) plus the stub's reply.
func BenchmarkSessionDoTCP(b *testing.B) {
	srv, conn := newTCPStubPair(b)
	sess := New(conn, 1, srv.kc, Config{Timeout: 5 * time.Second, Retries: 2})
	defer sess.Close()
	op := []byte("put user0000000000 value")
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sess.Do(op); err != nil {
			b.Fatal(err)
		}
	}
}
