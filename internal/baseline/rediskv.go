package baseline

import (
	"fmt"
	"sync"

	"lcm/internal/aead"
	"lcm/internal/latency"
	"lcm/internal/transport"
	"lcm/internal/wire"
)

// RedisServer approximates the "Redis TLS" comparator of Sec. 6.4: a
// minimal in-memory hash store with an append-only log and group-commit
// fsync, fronted by the same stunnel-like parallel encryption tier as the
// native baseline.
//
// Differences from NativeServer that matter for the figures:
//   - reads take a shared lock (Redis serves GETs from its event loop
//     with no persistence work at all), so read-heavy load scales;
//   - updates join a group commit in sync mode, so Redis keeps scaling in
//     Fig. 6 while the per-op-fsync native store goes flat.
//
// The wire protocol is the same framed kvs codec as the other baselines
// rather than textual RESP; the simplification does not affect the
// measured shape.
type RedisServer struct {
	key    aead.Key
	mu     sync.RWMutex
	data   map[string]string
	aof    *AOF // nil: no persistence
	model  *latency.Model
	coreMu sync.Mutex // the single-threaded event loop

	connMu    sync.Mutex
	liveConns map[transport.Conn]struct{}

	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
}

// RedisConfig assembles a RedisServer.
type RedisConfig struct {
	Key        aead.Key
	AOFPath    string // enables the append log when non-empty
	SyncWrites bool   // appendfsync always, via group commit
	Model      *latency.Model
}

// NewRedisServer creates the server.
func NewRedisServer(cfg RedisConfig) (*RedisServer, error) {
	s := &RedisServer{
		key:       cfg.Key,
		data:      make(map[string]string),
		model:     cfg.Model,
		liveConns: make(map[transport.Conn]struct{}),
		stop:      make(chan struct{}),
	}
	if cfg.AOFPath != "" {
		aof, err := NewAOF(cfg.AOFPath, cfg.SyncWrites, cfg.Model)
		if err != nil {
			return nil, err
		}
		s.aof = aof
	}
	return s, nil
}

// Serve accepts connections until the listener closes.
func (s *RedisServer) Serve(l transport.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.connMu.Lock()
		s.liveConns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.liveConns, conn)
				s.connMu.Unlock()
			}()
			s.connLoop(conn)
		}()
	}
}

func (s *RedisServer) connLoop(conn transport.Conn) {
	defer conn.Close()
	for {
		frame, err := conn.Recv()
		if err != nil {
			return
		}
		kind, payload, err := wire.DecodeFrame(frame)
		if err != nil || kind != wire.FrameInvoke {
			_ = conn.Send(wire.ErrorFrame(fmt.Errorf("rediskv: bad frame")))
			continue
		}
		resp, err := s.handle(payload)
		if err != nil {
			_ = conn.Send(wire.ErrorFrame(err))
			continue
		}
		_ = conn.Send(wire.OKFrame(resp))
	}
}

// Command tags reuse the kvs wire encoding: 1=GET 2=PUT 3=DEL.
func (s *RedisServer) handle(ciphertext []byte) ([]byte, error) {
	op, err := channelOpen(s.key, ciphertext)
	if err != nil {
		return nil, err
	}
	if len(op) == 0 {
		return nil, fmt.Errorf("rediskv: empty command")
	}
	// Commands pass through the single-threaded event loop.
	s.coreMu.Lock()
	s.model.WaitServerOp()
	s.coreMu.Unlock()
	r := wire.NewReader(op[1:])
	switch op[0] {
	case 1: // GET
		key := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, err
		}
		s.mu.RLock()
		value, ok := s.data[key]
		s.mu.RUnlock()
		return s.sealResult(ok, []byte(value))
	case 2: // PUT
		key := string(r.Var())
		value := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.data[key] = value
		s.mu.Unlock()
		if s.aof != nil {
			if err := s.aof.AppendGroup(frameRecord(op)); err != nil {
				return nil, err
			}
		}
		return s.sealResult(true, nil)
	case 3: // DEL
		key := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		_, ok := s.data[key]
		delete(s.data, key)
		s.mu.Unlock()
		if s.aof != nil {
			if err := s.aof.AppendGroup(frameRecord(op)); err != nil {
				return nil, err
			}
		}
		return s.sealResult(ok, nil)
	default:
		return nil, fmt.Errorf("rediskv: unknown command %d", op[0])
	}
}

// sealResult encodes a result in the shared kvs result format.
func (s *RedisServer) sealResult(found bool, value []byte) ([]byte, error) {
	w := wire.NewWriter(5 + len(value))
	if found {
		w.U8(1) // statusOK
	} else {
		w.U8(2) // statusNotFound
	}
	w.Var(value)
	return channelSeal(s.key, w.Bytes())
}

// Len returns the number of stored keys.
func (s *RedisServer) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Shutdown closes every live connection, waits for handlers and closes
// the AOF. The caller closes its Listener first.
func (s *RedisServer) Shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.connMu.Lock()
	for conn := range s.liveConns {
		_ = conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	if s.aof != nil {
		_ = s.aof.Close()
	}
}

// NewRedisSession connects a client session to a Redis-like server.
func NewRedisSession(conn transport.Conn, key aead.Key) Session {
	return newKVSession(conn, key)
}
