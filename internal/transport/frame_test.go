package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"testing"
)

// A frame leaves in one vectored write whose header and iovec buffers
// live in the connection, so a steady-state Send allocates nothing.
func TestTCPSendAllocs(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		raw, err := l.Accept()
		if err != nil {
			return
		}
		defer raw.Close()
		buf := make([]byte, 64<<10)
		for {
			if _, err := raw.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := DialTCP(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 200)
	allocs := testing.AllocsPerRun(500, func() {
		if err := c.Send(frame); err != nil {
			t.Fatal(err)
		}
	})
	c.Close()
	<-drained
	if allocs > 0 {
		t.Fatalf("Send of a %d B frame allocates %.2f times, want 0", len(frame), allocs)
	}
}

// streamConn is a net.Conn over in-memory streams: reads come from r,
// writes go to w. tcpConn calls nothing else when no deadline is set.
type streamConn struct {
	net.Conn
	r io.Reader
	w io.Writer
}

func (c streamConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c streamConn) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c streamConn) Close() error                { return nil }

// FuzzTCPRecv feeds an arbitrary byte stream to tcpConn.Recv. Oracles:
// no panic; the bytes Recv allocates are bounded by the stream's length
// (plus one receive chunk), whatever its headers announce; the frames it
// returns re-frame to a prefix of the stream, the rest is a torn or
// oversized frame; and Send→Recv returns every frame intact.
func FuzzTCPRecv(f *testing.F) {
	f.Add([]byte{})
	f.Add(tornFrame)
	f.Add(oversizedHeader)
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame))
	f.Add(binary.BigEndian.AppendUint32(nil, 0xFFFFFFF0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 2, 'h', 'i', 0, 0, 0, 1, 'x'})
	f.Fuzz(func(t *testing.T, stream []byte) {
		recv := &tcpConn{nc: streamConn{r: bytes.NewReader(stream)}}
		frames := make([][]byte, 0, len(stream)/4+1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			msg, err := recv.Recv()
			if err != nil {
				break
			}
			frames = append(frames, msg)
		}
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(4*len(stream)+recvChunk+64<<10); alloc > bound {
			t.Fatalf("Recv over %d bytes allocated %d bytes, bound %d", len(stream), alloc, bound)
		}

		var out bytes.Buffer
		send := &tcpConn{nc: streamConn{w: &out}}
		for _, msg := range frames {
			if err := send.Send(msg); err != nil {
				t.Fatalf("Send of a received frame: %v", err)
			}
		}
		if !bytes.HasPrefix(stream, out.Bytes()) {
			t.Fatalf("re-framed frames are not a prefix of the stream")
		}
		if rest := stream[out.Len():]; len(rest) >= 4 {
			n := binary.BigEndian.Uint32(rest)
			if n <= MaxFrame && int(n) <= len(rest)-4 {
				t.Fatalf("Recv stopped before a complete %d-byte frame", n)
			}
		}
		back := &tcpConn{nc: streamConn{r: &out}}
		for i, want := range frames {
			got, err := back.Recv()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("frame %d: Send→Recv = %q, %v; want %q", i, got, err, want)
			}
		}
	})
}
