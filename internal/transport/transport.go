// Package transport provides the message channels between clients and the
// server: an in-memory network for tests and benchmarks, a TCP transport
// with length-prefixed framing for real deployments (the prototype of
// Sec. 5.3 uses TCP sockets), and a tampering wrapper modelling a
// malicious server's network-level powers (drop, duplicate, reorder).
//
// With a correct server, both transports deliver messages reliably in FIFO
// order per connection, as the system model requires (Sec. 2.1).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"
)

// ErrClosed reports use of a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// ErrDeadline reports that a wait or an I/O timeout expired. A receive
// that expires before a frame's first byte leaves the stream intact and
// the connection usable. One that expires mid-frame (it also wraps
// io.ErrUnexpectedEOF), or any Send, tears the frame: redial.
var ErrDeadline = errors.New("transport: i/o deadline exceeded")

// MaxFrame bounds a single message (16 MiB); larger frames indicate
// corruption or abuse.
const MaxFrame = 16 << 20

// Conn is a reliable, FIFO, message-oriented duplex connection.
// Send and Recv may be used concurrently with each other, but at most one
// goroutine may call Send and one may call Recv at a time.
type Conn interface {
	Send(msg []byte) error
	Recv() ([]byte, error)
	Close() error
}

// TimedConn is a Conn whose receive can bound its wait for a frame. TCP
// and Pipe conns are TimedConns; Timed adapts any other Conn.
type TimedConn interface {
	Conn
	// RecvWithin is Recv failing with ErrDeadline, stream intact, if no
	// frame begins to arrive within wait. RecvWithin(0) is Recv.
	RecvWithin(wait time.Duration) ([]byte, error)
}

// Listener accepts inbound connections.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	Addr() string
}

// ---- In-memory transport ----

type pipeConn struct {
	send chan<- []byte
	recv <-chan []byte

	closeOnce sync.Once
	closed    chan struct{}   // this side closed
	peer      <-chan struct{} // other side closed
	closePeer func()          // signals our closed channel is shared state
}

// Pipe returns two connected in-memory connections. Messages are copied
// at the boundary so callers may reuse buffers.
func Pipe() (Conn, Conn) {
	ab := make(chan []byte, 64)
	ba := make(chan []byte, 64)
	ca := make(chan struct{})
	cb := make(chan struct{})
	a := &pipeConn{send: ab, recv: ba, closed: ca, peer: cb}
	b := &pipeConn{send: ba, recv: ab, closed: cb, peer: ca}
	return a, b
}

// Send implements Conn.
func (c *pipeConn) Send(msg []byte) error {
	// Check for closure first: a ready buffer slot must not mask it.
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer:
		return ErrClosed
	default:
	}
	cp := make([]byte, len(msg))
	copy(cp, msg)
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peer:
		return ErrClosed
	case c.send <- cp:
		return nil
	}
}

// Recv implements Conn.
func (c *pipeConn) Recv() ([]byte, error) { return c.RecvWithin(0) }

// RecvWithin implements TimedConn.
func (c *pipeConn) RecvWithin(wait time.Duration) ([]byte, error) {
	select {
	case msg := <-c.recv:
		return msg, nil
	case <-expiry(wait):
		return nil, ErrDeadline
	case <-c.closed:
		// Drain anything already queued before reporting closure.
		select {
		case msg := <-c.recv:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	case <-c.peer:
		select {
		case msg := <-c.recv:
			return msg, nil
		default:
			return nil, io.EOF
		}
	}
}

// Close implements Conn.
func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// expiry fires once wait has passed; a zero wait never fires.
func expiry(wait time.Duration) <-chan time.Time {
	if wait <= 0 {
		return nil
	}
	return time.After(wait)
}

// timedConn is Timed's adapter: a reader goroutine receives one frame
// ahead of the caller into a one-slot channel.
type timedConn struct {
	Conn
	frames    chan timedFrame
	closeOnce sync.Once
	closed    chan struct{}
	done      chan struct{} // closed when the reader goroutine ends
}

type timedFrame struct {
	msg []byte
	err error
}

// Timed returns c if it is a TimedConn. Otherwise it wraps c in a reader
// goroutine that stops at c's first receive error or at Close, which
// closes c and waits for it.
func Timed(c Conn) TimedConn {
	if tc, ok := c.(TimedConn); ok {
		return tc
	}
	t := &timedConn{Conn: c, frames: make(chan timedFrame, 1), closed: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		for {
			msg, err := c.Recv()
			select {
			case t.frames <- timedFrame{msg, err}:
			case <-t.closed:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return t
}

// Recv implements Conn.
func (t *timedConn) Recv() ([]byte, error) { return t.RecvWithin(0) }

// RecvWithin implements TimedConn.
func (t *timedConn) RecvWithin(wait time.Duration) ([]byte, error) {
	select {
	case f := <-t.frames:
		return f.msg, f.err
	case <-expiry(wait):
		return nil, ErrDeadline
	case <-t.closed:
		return nil, ErrClosed
	}
}

// Close implements Conn.
func (t *timedConn) Close() error {
	t.closeOnce.Do(func() { close(t.closed) })
	err := t.Conn.Close()
	<-t.done
	return err
}

// InmemNetwork is a named in-memory network: servers Listen, clients Dial.
type InmemNetwork struct {
	mu        sync.Mutex
	listeners map[string]*inmemListener
}

// NewInmemNetwork returns an empty network.
func NewInmemNetwork() *InmemNetwork {
	return &InmemNetwork{listeners: make(map[string]*inmemListener)}
}

type inmemListener struct {
	net     *InmemNetwork
	name    string
	backlog chan Conn

	closeOnce sync.Once
	closed    chan struct{}
}

// Listen registers a named endpoint.
func (n *InmemNetwork) Listen(name string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, exists := n.listeners[name]; exists {
		return nil, fmt.Errorf("transport: endpoint %q already listening", name)
	}
	l := &inmemListener{
		net:     n,
		name:    name,
		backlog: make(chan Conn, 64),
		closed:  make(chan struct{}),
	}
	n.listeners[name] = l
	return l, nil
}

// Dial connects to a named endpoint.
func (n *InmemNetwork) Dial(name string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[name]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: no listener at %q", name)
	}
	client, server := Pipe()
	select {
	case l.backlog <- server:
		return client, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

// Accept implements Listener.
func (l *inmemListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

// Close implements Listener.
func (l *inmemListener) Close() error {
	l.closeOnce.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		delete(l.net.listeners, l.name)
		l.net.mu.Unlock()
	})
	return nil
}

// Addr implements Listener.
func (l *inmemListener) Addr() string { return l.name }

// ---- TCP transport ----

// TCPOptions tunes failure detection on a TCP connection. The zero value
// preserves the historical behaviour — no timeouts, no keep-alive — so
// existing callers are unaffected; the swarm harness turns everything on.
type TCPOptions struct {
	// DialTimeout bounds connection establishment (0 = no limit).
	DialTimeout time.Duration
	// ReadTimeout bounds each Recv (0 = no limit), and RecvWithin's frame
	// once its first byte has arrived. A Recv that exceeds it mid-frame
	// fails with a torn ErrDeadline, so only enable it on connections
	// whose protocol guarantees traffic within the window; dead-peer
	// detection on idle connections belongs to KeepAlive instead.
	ReadTimeout time.Duration
	// WriteTimeout bounds each Send (0 = no limit) — the guard against a
	// peer that stopped reading while the kernel send buffer fills.
	WriteTimeout time.Duration
	// KeepAlive enables TCP keep-alive probes with the given period
	// (0 = disabled), so a dead peer eventually surfaces as a Recv error
	// even with no deadline set.
	KeepAlive time.Duration
}

func (o TCPOptions) apply(nc net.Conn) {
	if o.KeepAlive > 0 {
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.SetKeepAlive(true)
			tc.SetKeepAlivePeriod(o.KeepAlive)
		}
	}
}

// recvChunk bounds how far ahead of the bytes that have arrived Recv
// allocates a frame's body: a peer that sends only a header announcing
// MaxFrame pins one chunk, not 16 MiB.
const recvChunk = 64 << 10

type tcpConn struct {
	nc   net.Conn
	opts TCPOptions

	readMu  sync.Mutex
	rhdr    [4]byte // guarded by readMu
	writeMu sync.Mutex
	// Guarded by writeMu and reused by every Send, so a frame costs one
	// vectored write and no allocation.
	whdr [4]byte
	wvec [2][]byte
	wbuf net.Buffers
}

var _ Conn = (*tcpConn)(nil)

// DialTCP connects to a TCP frame endpoint with no timeouts configured.
func DialTCP(addr string) (Conn, error) {
	return DialTCPTimeout(addr, TCPOptions{})
}

// DialTCPTimeout connects to a TCP frame endpoint with the given timeout
// and keep-alive configuration.
func DialTCPTimeout(addr string, opts TCPOptions) (Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	opts.apply(nc)
	return &tcpConn{nc: nc, opts: opts}, nil
}

// wrapIO translates net-level timeout errors into ErrDeadline.
func wrapIO(what string, err error) error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %s: %v", ErrDeadline, what, err)
	}
	return fmt.Errorf("transport: %s: %w", what, err)
}

// Send implements Conn with u32 length-prefixed framing: header and body
// leave in one vectored write (writev on a TCP socket).
func (c *tcpConn) Send(msg []byte) error {
	if len(msg) > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(msg))
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if t := c.opts.WriteTimeout; t > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(t))
	}
	binary.BigEndian.PutUint32(c.whdr[:], uint32(len(msg)))
	c.wvec = [2][]byte{c.whdr[:], msg}
	c.wbuf = c.wvec[:] // WriteTo advances wbuf past what it wrote
	if _, err := c.wbuf.WriteTo(c.nc); err != nil {
		return wrapIO("write frame", err)
	}
	return nil
}

// Recv implements Conn.
func (c *tcpConn) Recv() ([]byte, error) { return c.RecvWithin(0) }

// RecvWithin implements TimedConn: wait bounds only the arrival of the
// frame's first byte (and ReadTimeout, if shorter). The body buffer grows
// with the bytes that have arrived, at most recvChunk ahead of them.
func (c *tcpConn) RecvWithin(wait time.Duration) ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	var frameBy time.Time // ReadTimeout's bound on the whole frame
	if t := c.opts.ReadTimeout; t > 0 {
		frameBy = time.Now().Add(t)
	}
	waiting := wait > 0 && (frameBy.IsZero() || wait < c.opts.ReadTimeout)
	if waiting {
		c.nc.SetReadDeadline(time.Now().Add(wait))
	} else if !frameBy.IsZero() {
		c.nc.SetReadDeadline(frameBy)
	}
	got, err := io.ReadAtLeast(c.nc, c.rhdr[:], 1)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, err
		}
		return nil, wrapIO("read header", err) // nothing consumed
	}
	if waiting {
		c.nc.SetReadDeadline(frameBy)
	}
	if _, err := io.ReadFull(c.nc, c.rhdr[got:]); err != nil {
		return nil, torn("read header", err)
	}
	size := binary.BigEndian.Uint32(c.rhdr[:])
	if size > MaxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", size)
	}
	n := int(size)
	msg := make([]byte, 0, min(n, recvChunk))
	for len(msg) < n {
		if len(msg) == cap(msg) {
			msg = slices.Grow(msg, min(n-len(msg), len(msg)))
		}
		got, err := io.ReadFull(c.nc, msg[len(msg):min(n, cap(msg))])
		msg = msg[:len(msg)+got]
		if err != nil {
			return nil, torn("read body", err)
		}
	}
	return msg, nil
}

// torn reports an error that cut a begun frame short, as io.ErrUnexpectedEOF.
func torn(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return io.ErrUnexpectedEOF // the header promised more
	}
	return fmt.Errorf("%w (%w)", wrapIO(what, err), io.ErrUnexpectedEOF)
}

// Close implements Conn.
func (c *tcpConn) Close() error { return c.nc.Close() }

type tcpListener struct {
	nl   net.Listener
	opts TCPOptions
}

// ListenTCP opens a TCP frame endpoint; addr may use port 0.
func ListenTCP(addr string) (Listener, error) {
	return ListenTCPOptions(addr, TCPOptions{})
}

// ListenTCPOptions opens a TCP frame endpoint whose accepted connections
// carry the given timeout and keep-alive configuration.
func ListenTCPOptions(addr string, opts TCPOptions) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl, opts: opts}, nil
}

// Accept implements Listener.
func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	l.opts.apply(nc)
	return &tcpConn{nc: nc, opts: l.opts}, nil
}

// Close implements Listener.
func (l *tcpListener) Close() error { return l.nl.Close() }

// Addr implements Listener.
func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// ---- Adversarial wrapper ----

// TamperPolicy decides the fate of each message through a TamperConn.
//
// Composition order is drop → swap → duplicate: every offered message
// first faces DropEvery (which counts all offered messages, dropped ones
// included); survivors enter the swap stage; DuplicateEvery then counts
// only the messages actually handed to the inner connection, so its n-th
// victim is the n-th message that really went out, not the n-th offered.
type TamperPolicy struct {
	// DropEvery drops every n-th offered message (0 disables).
	DropEvery int
	// DuplicateEvery re-delivers every n-th surviving message twice
	// (0 disables) — a network-level replay.
	DuplicateEvery int
	// SwapPairs delivers surviving messages in pairs with their order
	// swapped, violating FIFO. A held message with no successor yet is
	// flushed when the connection is closed.
	SwapPairs bool
}

// TamperConn wraps a Conn and applies a malicious server's message games
// on the Send path.
type TamperConn struct {
	inner     TimedConn
	policy    TamperPolicy
	mu        sync.Mutex
	offered   int // all messages offered to Send (DropEvery's clock)
	delivered int // messages handed to inner (DuplicateEvery's clock)
	heldMsg   []byte
	holding   bool
}

var _ Conn = (*TamperConn)(nil)

// NewTamperConn wraps inner with the policy.
func NewTamperConn(inner Conn, policy TamperPolicy) *TamperConn {
	return &TamperConn{inner: Timed(inner), policy: policy}
}

// Send implements Conn, applying the tampering policy in drop → swap →
// duplicate order.
func (c *TamperConn) Send(msg []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.offered++
	if d := c.policy.DropEvery; d > 0 && c.offered%d == 0 {
		return nil // silently discarded
	}
	if c.policy.SwapPairs {
		if !c.holding {
			c.heldMsg = append([]byte(nil), msg...)
			c.holding = true
			return nil
		}
		c.holding = false
		if err := c.deliver(msg); err != nil {
			return err
		}
		return c.deliver(c.heldMsg)
	}
	return c.deliver(msg)
}

// deliver is the duplicate stage: it hands msg to the inner connection
// and re-sends every DuplicateEvery-th delivered message.
func (c *TamperConn) deliver(msg []byte) error {
	c.delivered++
	if err := c.inner.Send(msg); err != nil {
		return err
	}
	if d := c.policy.DuplicateEvery; d > 0 && c.delivered%d == 0 {
		return c.inner.Send(msg)
	}
	return nil
}

// Recv implements Conn.
func (c *TamperConn) Recv() ([]byte, error) { return c.inner.Recv() }

// RecvWithin implements TimedConn.
func (c *TamperConn) RecvWithin(wait time.Duration) ([]byte, error) {
	return c.inner.RecvWithin(wait)
}

// Close implements Conn. A message still held by the swap stage is
// flushed first, so a stream ending on an odd count loses nothing.
func (c *TamperConn) Close() error {
	c.mu.Lock()
	if c.holding {
		c.holding = false
		_ = c.deliver(c.heldMsg) // best effort; the conn is going away
	}
	c.mu.Unlock()
	return c.inner.Close()
}
