package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// connPair names a factory for the contract tests.
type connPair struct {
	name string
	make func(t *testing.T) (Conn, Conn)
}

func pairs(t *testing.T) []connPair {
	t.Helper()
	return []connPair{
		{name: "pipe", make: func(t *testing.T) (Conn, Conn) { return Pipe() }},
		{name: "tcp", make: func(t *testing.T) (Conn, Conn) {
			l, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatalf("ListenTCP: %v", err)
			}
			t.Cleanup(func() { l.Close() })
			type result struct {
				conn Conn
				err  error
			}
			ch := make(chan result, 1)
			go func() {
				c, err := l.Accept()
				ch <- result{c, err}
			}()
			client, err := DialTCP(l.Addr())
			if err != nil {
				t.Fatalf("DialTCP: %v", err)
			}
			res := <-ch
			if res.err != nil {
				t.Fatalf("Accept: %v", res.err)
			}
			return client, res.conn
		}},
		{name: "inmem-network", make: func(t *testing.T) (Conn, Conn) {
			n := NewInmemNetwork()
			l, err := n.Listen("server")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			t.Cleanup(func() { l.Close() })
			client, err := n.Dial("server")
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			server, err := l.Accept()
			if err != nil {
				t.Fatalf("Accept: %v", err)
			}
			return client, server
		}},
	}
}

func TestConnContract(t *testing.T) {
	for _, p := range pairs(t) {
		t.Run(p.name, func(t *testing.T) {
			a, b := p.make(t)
			defer a.Close()
			defer b.Close()

			// Round trip both directions.
			if err := a.Send([]byte("ping")); err != nil {
				t.Fatalf("Send: %v", err)
			}
			got, err := b.Recv()
			if err != nil || string(got) != "ping" {
				t.Fatalf("Recv = %q, %v", got, err)
			}
			if err := b.Send([]byte("pong")); err != nil {
				t.Fatal(err)
			}
			got, err = a.Recv()
			if err != nil || string(got) != "pong" {
				t.Fatalf("Recv = %q, %v", got, err)
			}

			// FIFO order.
			for i := 0; i < 20; i++ {
				if err := a.Send([]byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				got, err := b.Recv()
				if err != nil || got[0] != byte(i) {
					t.Fatalf("FIFO violated at %d: %v, %v", i, got, err)
				}
			}

			// Empty and binary messages survive.
			if err := a.Send(nil); err != nil {
				t.Fatal(err)
			}
			got, err = b.Recv()
			if err != nil || len(got) != 0 {
				t.Fatalf("empty frame = %v, %v", got, err)
			}
			payload := bytes.Repeat([]byte{0x00, 0xFF}, 4096)
			if err := a.Send(payload); err != nil {
				t.Fatal(err)
			}
			got, err = b.Recv()
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("binary frame mismatch")
			}
		})
	}
}

func TestConnSenderBufferReuse(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	buf := []byte("first")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXX")
	got, err := b.Recv()
	if err != nil || string(got) != "first" {
		t.Fatalf("message aliased sender's buffer: %q", got)
	}
}

func TestPipeCloseUnblocksRecv(t *testing.T) {
	a, b := Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := b.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	a.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil error after peer close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on peer close")
	}
}

func TestPipeSendAfterCloseFails(t *testing.T) {
	a, b := Pipe()
	_ = b
	a.Close()
	if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestInmemNetworkLifecycle(t *testing.T) {
	n := NewInmemNetwork()
	if _, err := n.Dial("nobody"); err == nil {
		t.Fatal("Dial to absent listener succeeded")
	}
	l, err := n.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("svc"); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
	if l.Addr() != "svc" {
		t.Fatalf("Addr = %q", l.Addr())
	}
	l.Close()
	if _, err := n.Dial("svc"); err == nil {
		t.Fatal("Dial to closed listener succeeded")
	}
	// The name is free again.
	if _, err := n.Listen("svc"); err != nil {
		t.Fatalf("re-Listen after close: %v", err)
	}
}

func TestInmemAcceptUnblocksOnClose(t *testing.T) {
	n := NewInmemNetwork()
	l, _ := n.Listen("svc")
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Accept after close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock on close")
	}
}

func TestTCPRejectsOversizedFrame(t *testing.T) {
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			c.Recv() // will fail; we only need the connection open
		}
	}()
	c, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("Send accepted oversized frame")
	}
}

func TestTCPRecvAfterPeerClose(t *testing.T) {
	l, _ := ListenTCP("127.0.0.1:0")
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err := DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	server.Close()
	if _, err := client.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("Recv after peer close = %v, want EOF", err)
	}
}

func TestConcurrentConnsThroughInmemNetwork(t *testing.T) {
	n := NewInmemNetwork()
	l, _ := n.Listen("svc")
	defer l.Close()

	// Echo server.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					select {
					case <-stop:
						return
					default:
					}
					if err := c.Send(msg); err != nil {
						return
					}
				}
			}()
		}
	}()

	var clients sync.WaitGroup
	for g := 0; g < 8; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			c, err := n.Dial("svc")
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				msg := []byte(fmt.Sprintf("g%d-m%d", g, i))
				if err := c.Send(msg); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
				got, err := c.Recv()
				if err != nil || !bytes.Equal(got, msg) {
					t.Errorf("echo mismatch: %q vs %q (%v)", got, msg, err)
					return
				}
			}
		}(g)
	}
	clients.Wait()
	close(stop)
	l.Close()
	wg.Wait()
}

func TestTamperConnDrop(t *testing.T) {
	a, b := Pipe()
	tc := NewTamperConn(a, TamperPolicy{DropEvery: 2})
	for i := 0; i < 4; i++ {
		if err := tc.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Messages 2 and 4 (1-indexed) dropped: receive 0 and 2.
	for _, want := range []byte{0, 2} {
		got, err := b.Recv()
		if err != nil || got[0] != want {
			t.Fatalf("got %v, want %d", got, want)
		}
	}
}

func TestTamperConnDuplicate(t *testing.T) {
	a, b := Pipe()
	tc := NewTamperConn(a, TamperPolicy{DuplicateEvery: 2})
	tc.Send([]byte{1})
	tc.Send([]byte{2})
	var got []byte
	for i := 0; i < 3; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m[0])
	}
	if !bytes.Equal(got, []byte{1, 2, 2}) {
		t.Fatalf("duplicate pattern = %v", got)
	}
}

func TestTamperConnSwapPairs(t *testing.T) {
	a, b := Pipe()
	tc := NewTamperConn(a, TamperPolicy{SwapPairs: true})
	tc.Send([]byte{1})
	tc.Send([]byte{2})
	tc.Send([]byte{3})
	tc.Send([]byte{4})
	var got []byte
	for i := 0; i < 4; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m[0])
	}
	if !bytes.Equal(got, []byte{2, 1, 4, 3}) {
		t.Fatalf("swap pattern = %v", got)
	}
}

// tcpPair builds a connected TCP client/server pair with the options
// applied to both ends.
func tcpPair(t *testing.T, opts TCPOptions) (client, server Conn) {
	t.Helper()
	l, err := ListenTCPOptions("127.0.0.1:0", opts)
	if err != nil {
		t.Fatalf("ListenTCPOptions: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	client, err = DialTCPTimeout(l.Addr(), opts)
	if err != nil {
		t.Fatalf("DialTCPTimeout: %v", err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestTCPReadDeadlineExpires(t *testing.T) {
	client, _ := tcpPair(t, TCPOptions{ReadTimeout: 50 * time.Millisecond})
	start := time.Now()
	_, err := client.Recv()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Recv on idle conn = %v, want ErrDeadline", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
}

func TestTCPWriteDeadlineExpires(t *testing.T) {
	// The peer never reads, so the kernel buffers fill and Send must fail
	// with ErrDeadline instead of blocking forever.
	client, _ := tcpPair(t, TCPOptions{WriteTimeout: 100 * time.Millisecond})
	frame := make([]byte, 4<<20)
	for i := 0; i < 64; i++ {
		if err := client.Send(frame); err != nil {
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("Send into full buffer = %v, want ErrDeadline", err)
			}
			return
		}
	}
	t.Fatal("Send never hit the write deadline")
}

func TestTCPKeepAliveConfigured(t *testing.T) {
	// Smoke test: enabling keep-alive must not disturb framing.
	client, server := tcpPair(t, TCPOptions{KeepAlive: time.Second})
	if err := client.Send([]byte("ka")); err != nil {
		t.Fatal(err)
	}
	if got, err := server.Recv(); err != nil || string(got) != "ka" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestTCPConcurrentSendRecv(t *testing.T) {
	// Full-duplex traffic with concurrent senders/receivers on both ends —
	// the -race run guards the per-direction mutexes and deadline updates.
	client, server := tcpPair(t, TCPOptions{WriteTimeout: 5 * time.Second, KeepAlive: time.Second})
	const n = 400
	var wg sync.WaitGroup
	fail := make(chan error, 4)
	pump := func(c Conn, tag byte) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := c.Send([]byte{tag, byte(i), byte(i >> 8)}); err != nil {
				fail <- err
				return
			}
		}
	}
	drain := func(c Conn, tag byte) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			msg, err := c.Recv()
			if err != nil {
				fail <- err
				return
			}
			if len(msg) != 3 || msg[0] != tag || int(msg[1])|int(msg[2])<<8 != i {
				fail <- fmt.Errorf("frame %d corrupted: %v", i, msg)
				return
			}
		}
	}
	wg.Add(4)
	go pump(client, 'c')
	go pump(server, 's')
	go drain(server, 'c')
	go drain(client, 's')
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
}

// Hostile byte streams the TCP receive tests send; FuzzTCPRecv seeds its
// corpus with them.
var (
	// tornFrame is a header promising 100 bytes followed by only 10.
	tornFrame = append([]byte{0, 0, 0, 100}, make([]byte, 10)...)
	// oversizedHeader announces one byte more than MaxFrame.
	oversizedHeader = binary.BigEndian.AppendUint32(nil, MaxFrame+1)
)

func TestTCPTornFrameOnKill(t *testing.T) {
	// A connection killed mid-frame must surface an error, not a short
	// frame: write a header promising 100 bytes, deliver 10, and close.
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	defer server.Close()
	raw.Write(tornFrame)
	raw.Close()
	if _, err := server.Recv(); err == nil {
		t.Fatal("Recv returned a torn frame as success")
	}
}

func TestTCPRecvRejectsOversizedFrame(t *testing.T) {
	// The receive path must refuse a header announcing more than MaxFrame
	// before allocating or reading the body.
	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	raw, err := net.Dial("tcp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	server := <-accepted
	defer server.Close()
	if _, err := raw.Write(oversizedHeader); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err == nil {
		t.Fatal("Recv accepted an oversized frame header")
	}
}

func TestTamperConnSwapFlushesHeldOnClose(t *testing.T) {
	a, b := Pipe()
	tc := NewTamperConn(a, TamperPolicy{SwapPairs: true})
	tc.Send([]byte{1})
	tc.Send([]byte{2})
	tc.Send([]byte{3}) // held — must not be lost
	tc.Close()
	var got []byte
	for i := 0; i < 3; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got = append(got, m[0])
	}
	if !bytes.Equal(got, []byte{2, 1, 3}) {
		t.Fatalf("close flush pattern = %v, want [2 1 3]", got)
	}
}

func TestTamperConnCompositionOrder(t *testing.T) {
	// drop → swap → duplicate: DropEvery counts offered messages,
	// DuplicateEvery counts delivered ones. Offer 1..8 with DropEvery 4
	// (drops 4 and 8), SwapPairs on the survivors, DuplicateEvery 3 on
	// the delivered stream.
	a, b := Pipe()
	tc := NewTamperConn(a, TamperPolicy{DropEvery: 4, SwapPairs: true, DuplicateEvery: 3})
	for i := 1; i <= 8; i++ {
		if err := tc.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tc.Close()
	// Survivors: 1 2 3 5 6 7. Swapped pairs: (2,1) (5,3) (7,6).
	// Delivered stream 2 1 5 3 7 6; every 3rd duplicated: 5 and 6.
	want := []byte{2, 1, 5, 5, 3, 7, 6, 6}
	var got []byte
	for range want {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m[0])
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("composed stream = %v, want %v", got, want)
	}
}
