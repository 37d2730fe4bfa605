package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// timedPairs are the conns that bound their own waits.
func timedPairs(t *testing.T) []connPair {
	var out []connPair
	for _, p := range pairs(t) {
		if p.name != "inmem-network" { // the same pipeConn as "pipe"
			out = append(out, p)
		}
	}
	return out
}

// An expired wait is a clean ErrDeadline: nothing was consumed, so the
// frame that arrives afterwards is returned whole.
func TestRecvWithinExpiresThenReceivesWholeFrame(t *testing.T) {
	for _, p := range timedPairs(t) {
		t.Run(p.name, func(t *testing.T) {
			a, b := p.make(t)
			defer a.Close()
			defer b.Close()
			recv := a.(TimedConn)
			_, err := recv.RecvWithin(20 * time.Millisecond)
			if !errors.Is(err, ErrDeadline) || errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("RecvWithin with no frame = %v, want a clean ErrDeadline", err)
			}
			want := [][]byte{bytes.Repeat([]byte("x"), 300), []byte("second")}
			for _, msg := range want {
				if err := b.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
			for i, msg := range want {
				got, err := recv.RecvWithin(5 * time.Second)
				if err != nil || !bytes.Equal(got, msg) {
					t.Fatalf("frame %d = %q, %v; want %q", i, got, err, msg)
				}
			}
		})
	}
}

// rawTCPPair is a TCP conn whose peer writes raw bytes, so a test can
// split a frame wherever it likes.
func rawTCPPair(t *testing.T, opts TCPOptions) (recv TimedConn, raw net.Conn) {
	t.Helper()
	l, err := ListenTCPOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			c = nil
		}
		accepted <- c
	}()
	raw, err = net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c := <-accepted
	if c == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { raw.Close(); c.Close() })
	return c.(TimedConn), raw
}

// The wait bounds only a frame's first byte: a header trickling in one
// byte at a time, each gap longer than the wait, still decodes, and the
// stream stays in sync for the frame after it.
func TestRecvWithinHeaderAcrossDeadline(t *testing.T) {
	recv, raw := rawTCPPair(t, TCPOptions{})
	const wait = 20 * time.Millisecond
	first := append([]byte{0, 0, 0, 5}, "hello"...)
	second := append([]byte{0, 0, 0, 3}, "bye"...)
	if _, err := raw.Write(first[:1]); err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, b := range first[1:4] {
			time.Sleep(3 * wait)
			raw.Write([]byte{b})
		}
		time.Sleep(3 * wait)
		raw.Write(append(first[4:], second...))
	}()
	for _, want := range []string{"hello", "bye"} {
		got, err := recv.RecvWithin(wait)
		if err != nil || string(got) != want {
			t.Fatalf("RecvWithin = %q, %v; want %q", got, err, want)
		}
	}
}

// ReadTimeout still bounds a frame whose body stalls, and the error says
// the frame is torn.
func TestRecvWithinReadTimeoutBoundsStalledBody(t *testing.T) {
	recv, raw := rawTCPPair(t, TCPOptions{ReadTimeout: 100 * time.Millisecond})
	if _, err := raw.Write(tornFrame); err != nil { // header promises 100, 10 follow
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := recv.RecvWithin(20 * time.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadline) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("RecvWithin on a stalled body = %v, want a torn ErrDeadline", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a stalled body was never timed out")
	}
}

func TestRecvWithinUnblocksOnClose(t *testing.T) {
	for _, p := range timedPairs(t) {
		t.Run(p.name, func(t *testing.T) {
			a, b := p.make(t)
			defer b.Close()
			done := make(chan error, 1)
			go func() {
				_, err := a.(TimedConn).RecvWithin(time.Hour)
				done <- err
			}()
			time.Sleep(20 * time.Millisecond)
			a.Close()
			select {
			case err := <-done:
				if err == nil || errors.Is(err, ErrDeadline) {
					t.Fatalf("RecvWithin after Close = %v, want a closed-conn error", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not unblock RecvWithin")
			}
		})
	}
}

// plainConn hides a conn's RecvWithin (embedding the Conn interface
// promotes only its methods), as a foreign Conn would.
type plainConn struct{ Conn }

func TestTimedAdaptsPlainConn(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	if Timed(a) != a {
		t.Fatal("Timed wrapped a conn that bounds its own waits")
	}
	c := Timed(plainConn{a})
	if _, err := c.RecvWithin(20 * time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("RecvWithin with no frame = %v, want ErrDeadline", err)
	}
	if err := b.Send([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if got, err := c.RecvWithin(5 * time.Second); err != nil || string(got) != "late" {
		t.Fatalf("RecvWithin = %q, %v; want the late frame", got, err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after Close = %v, want ErrClosed", err)
	}
}
