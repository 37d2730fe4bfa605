package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// The decorators in this file wrap the interfaces the serving stack
// already accepts (transport.Conn, stablestore.Store, tee.ProgramFactory,
// service.Factory), so every layer is measured from outside and no
// serving-path file changes. The timed run installs only the counting
// half of the store wrapper; a traced run installs all four.

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spClientDo        spanKind = iota // one Do/DoRead/Scan, driver loop
	spTransportSend                   // Conn.Send under a session
	spClientWait                      // Send returned → reply frame received
	spCoreInit                        // Program.Init (enclave start: unseal + fold)
	spCoreCall                        // Program.Call, batch ecall
	spCoreOther                       // Program.Call, any other ecall
	spCoreRead                        // Program.HandleRead (read pool)
	spKVSApply                        // Service.Apply, get/put
	spKVSScan                         // Service.Apply, prefix scan
	spKVSDelta                        // Service.Delta
	spKVSSnapshot                     // Service.Snapshot (compaction)
	spKVSSnapshotRead                 // Service.SnapshotRead
	spStoreAppend                     // Store.Append/AppendGroup, primary chain
	spStoreBlob                       // Store.Store, primary slots
	spStoreOther                      // Load/LoadLog/TruncateLog, primary slots
	spMirrorAppend                    // Store.Append/AppendGroup, replica*/ slots
	spMirrorOther                     // every other call on replica*/ slots
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.do", "transport.send", "client.wait",
	"core.init", "core.call", "core.other", "core.read",
	"kvs.apply", "kvs.scan", "kvs.delta", "kvs.snapshot", "kvs.snapshot_read",
	"stablestore.append", "stablestore.blob", "stablestore.other",
	"replication.mirror_append", "replication.mirror_other",
}

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the tracer's base. Ref ties the spans of one request
// together on the client side (the session's operation ordinal) and names
// the ecall ordinal on the server side; N is the work the call carried
// (operations per ecall, records per append) and Bytes its payload.
type span struct {
	ID     uint64
	Parent uint64
	Start  int64
	End    int64
	Ref    uint64
	N      uint32
	Bytes  uint32
	Kind   spanKind
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(base time.Time, capacity int) *tracer {
	return &tracer{base: base, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64    { return int64(time.Since(t.base)) }
func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns the spans added so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// record times fn as one span of the given kind.
func (t *tracer) record(kind spanKind, parent uint64, n, bytes int, fn func()) {
	start := t.now()
	fn()
	t.add(span{ID: t.newID(), Parent: parent, Start: start, End: t.now(),
		N: uint32(n), Bytes: uint32(bytes), Kind: kind})
}

// writeSpans appends the spans to path as JSON lines.
func writeSpans(path, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Workload string `json:"workload"`
			Name     string `json:"name"`
			ID       uint64 `json:"id"`
			Parent   uint64 `json:"parent"`
			Start    int64  `json:"start_ns"`
			End      int64  `json:"end_ns"`
			Ref      uint64 `json:"ref"`
			N        uint32 `json:"n"`
			Bytes    uint32 `json:"bytes"`
		}{workload, spanNames[s.Kind], s.ID, s.Parent, s.Start, s.End, s.Ref, s.N, s.Bytes}); err != nil {
			f.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	return f.Close()
}

// ---- transport.Conn ----

// tracedConn sits under one session. The session is closed-loop (one
// outstanding request), so the frame its reader goroutine receives next
// answers the last Send: the wait span runs from that Send's return to
// the frame's arrival and, like the Send span, hangs under the client.do
// span the driver loop opened.
type tracedConn struct {
	inner     transport.Conn
	tr        *tracer
	parent    atomic.Uint64 // client.do span in progress, 0 outside one
	ref       atomic.Uint64
	sendStart atomic.Int64
	sendEnd   atomic.Int64
}

func (c *tracedConn) Send(msg []byte) error {
	start := c.tr.now()
	c.sendStart.Store(start)
	err := c.inner.Send(msg)
	end := c.tr.now()
	c.sendEnd.Store(end)
	c.tr.add(span{ID: c.tr.newID(), Parent: c.parent.Load(), Ref: c.ref.Load(),
		Start: start, End: end, N: 1, Bytes: uint32(len(msg)), Kind: spTransportSend})
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	frame, err := c.inner.Recv()
	if parent := c.parent.Load(); err == nil && parent != 0 {
		end := c.tr.now()
		start := c.sendEnd.Load()
		if start < c.sendStart.Load() {
			start = end // the reply overtook Send's return: nothing was waited for
		}
		c.tr.add(span{ID: c.tr.newID(), Parent: parent, Ref: c.ref.Load(),
			Start: start, End: end, N: 1, Bytes: uint32(len(frame)), Kind: spClientWait})
	}
	return frame, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// ---- stablestore.Store ----

// countingStore wraps the deployment's one physical store, below every
// shard and replica namespace. Without a tracer it only adds up the bytes
// handed to Store/Append/AppendGroup (no clock is read); with one it also
// records a span per call. Calls on a replica's namespace ("replicaN/…")
// are the replication layer's mirror writes.
type countingStore struct {
	inner stablestore.Store
	tr    *tracer
	bytes atomic.Int64

	// reseals counts rewrites of shard 0's sealed snapshot (stateSlot0 on
	// the physical store): one at bootstrap, then one per compaction.
	// onReseal, if set, runs before each is counted or written.
	stateSlot0 string
	reseals    atomic.Int64
	onReseal   atomic.Pointer[func()]
}

func isMirrorSlot(slot string) bool { return strings.Contains(slot, "replica") }

func (s *countingStore) call(slot string, primary, mirror spanKind, n, bytes int, fn func() error) error {
	s.bytes.Add(int64(bytes))
	if s.tr == nil {
		return fn()
	}
	kind := primary
	if isMirrorSlot(slot) {
		kind = mirror
	}
	var err error
	s.tr.record(kind, 0, n, bytes, func() { err = fn() })
	return err
}

func (s *countingStore) Store(slot string, blob []byte) error {
	if slot == s.stateSlot0 {
		if hook := s.onReseal.Load(); hook != nil {
			(*hook)()
		}
		s.reseals.Add(1)
	}
	return s.call(slot, spStoreBlob, spMirrorOther, 1, len(blob), func() error { return s.inner.Store(slot, blob) })
}

func (s *countingStore) Append(slot string, record []byte) error {
	return s.call(slot, spStoreAppend, spMirrorAppend, 1, len(record), func() error { return s.inner.Append(slot, record) })
}

func (s *countingStore) AppendGroup(slot string, records [][]byte) error {
	size := 0
	for _, r := range records {
		size += len(r)
	}
	return s.call(slot, spStoreAppend, spMirrorAppend, len(records), size, func() error { return s.inner.AppendGroup(slot, records) })
}

func (s *countingStore) Load(slot string) (blob []byte, err error) {
	err = s.call(slot, spStoreOther, spMirrorOther, 0, 0, func() error { blob, err = s.inner.Load(slot); return err })
	return blob, err
}

func (s *countingStore) LoadLog(slot string) (records [][]byte, err error) {
	err = s.call(slot, spStoreOther, spMirrorOther, 0, 0, func() error { records, err = s.inner.LoadLog(slot); return err })
	return records, err
}

func (s *countingStore) TruncateLog(slot string) error {
	return s.call(slot, spStoreOther, spMirrorOther, 0, 0, func() error { return s.inner.TruncateLog(slot) })
}

// ---- tee.ProgramFactory and service.Factory ----

// tracedProgram forwards Init/Call/HandleRead to the LCM trusted context
// and times each. It satisfies tee.ReadProgram, so the host's read pool
// still finds HandleRead. cur is the span of the Call in progress — calls
// are serialized per enclave, and the service runs on the caller's
// goroutine — which parents the service spans below.
type tracedProgram struct {
	inner tee.ReadProgram
	tr    *tracer
	cur   uint64
}

var _ tee.ReadProgram = (*tracedProgram)(nil)

func (p *tracedProgram) Identity() string { return p.inner.Identity() }

func (p *tracedProgram) timed(kind spanKind, n int, fn func()) {
	id := p.tr.newID()
	p.cur = id
	start := p.tr.now()
	fn()
	end := p.tr.now()
	p.cur = 0
	p.tr.add(span{ID: id, Ref: id, Start: start, End: end, N: uint32(n), Kind: kind})
}

func (p *tracedProgram) Init(env tee.Env) (err error) {
	p.timed(spCoreInit, 0, func() { err = p.inner.Init(env) })
	return err
}

func (p *tracedProgram) Call(env tee.Env, payload []byte) (resp []byte, err error) {
	kind, ops := spCoreOther, 0
	if core.IsBatchCall(payload) {
		kind = spCoreCall
		if invokes, derr := core.DecodeBatchCall(payload); derr == nil {
			ops = len(invokes)
		}
	}
	p.timed(kind, ops, func() { resp, err = p.inner.Call(env, payload) })
	return resp, err
}

func (p *tracedProgram) HandleRead(payload []byte) (resp []byte, err error) {
	// Reads run concurrently on the pool, outside the Call serialization,
	// so they do not touch cur and their service spans carry no parent.
	p.tr.record(spCoreRead, 0, 1, len(payload), func() { resp, err = p.inner.HandleRead(payload) })
	return resp, err
}

// tracedKVS embeds *kvs.Store so that every optional service interface
// (DeltaService, Sharder, Scanner, Resharder, SnapshotReader) is still
// promoted, and times the four calls that do the work.
type tracedKVS struct {
	*kvs.Store
	prog *tracedProgram
}

func (s *tracedKVS) Apply(op []byte) (res []byte, err error) {
	kind := spKVSApply
	if s.Store.IsScan(op) {
		kind = spKVSScan
	}
	s.prog.tr.record(kind, s.prog.cur, 1, len(op), func() { res, err = s.Store.Apply(op) })
	return res, err
}

func (s *tracedKVS) Delta() (d []byte, err error) {
	s.prog.tr.record(spKVSDelta, s.prog.cur, 1, 0, func() { d, err = s.Store.Delta() })
	return d, err
}

func (s *tracedKVS) Snapshot() (snap []byte, err error) {
	s.prog.tr.record(spKVSSnapshot, s.prog.cur, 1, 0, func() { snap, err = s.Store.Snapshot() })
	return snap, err
}

func (s *tracedKVS) SnapshotRead(op []byte) (res []byte, err error) {
	s.prog.tr.record(spKVSSnapshotRead, 0, 1, len(op), func() { res, err = s.Store.SnapshotRead(op) })
	return res, err
}

// tracedFactory builds the LCM trusted-context factory with the program
// and service wrappers in place. Each program instance (one per enclave
// epoch) gets its own service factory, which is how a service span finds
// the Call it runs under.
func tracedFactory(cfg core.TrustedConfig, tr *tracer) tee.ProgramFactory {
	return func() tee.Program {
		p := &tracedProgram{tr: tr}
		c := cfg
		c.NewService = func() service.Service { return &tracedKVS{Store: kvs.New(), prog: p} }
		p.inner = core.NewTrustedFactory(c)().(tee.ReadProgram)
		return p
	}
}
