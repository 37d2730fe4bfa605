package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"lcm/internal/aead"
	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/host"
	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
	"lcm/internal/ycsb"
)

// workload is one traffic mix plus the deployment it runs against.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	records   int     // keys loaded before the first timed operation
	valueSize int     // bytes per value
	getFrac   float64 // share of gets; the rest after scans are puts
	scanFrac  float64 // share of scatter-gather prefix scans (sharded only)

	snapReads  bool // gets travel DoRead against host.Config.SnapshotReads
	syncWrites bool // FileStore fsyncs every commit group
	shards     int
	replicas   int
	quorum     int
}

// The six workloads; the names are fixed, later issues cite them.
var workloads = []workload{
	{name: "ycsba-async", records: 1000, valueSize: 100, getFrac: 0.5, shards: 1,
		why: "YCSB-A 50/50 via Do, 1000x100B, no fsync: client seal/verify, TCP framing, batch loop, ecall and Alg. 2 do the work; storage is a few % of wall"},
	{name: "ycsba-sync", records: 1000, valueSize: 100, getFrac: 0.5, shards: 1, syncWrites: true,
		why: "ycsba-async with one fsync per commit group (paper Fig. 6): storage dominates, so committer/group-commit changes show here and CPU-path changes must not"},
	{name: "ycsbb-snapread", records: 1000, valueSize: 100, getFrac: 0.95, shards: 1, snapReads: true,
		why: "YCSB-B 95/5, gets via DoRead on the snapshot read pool, no fsync: a read-side gain that taxes the 5% puts (durable-advance ecall) shows in put_p50_us"},
	{name: "ycsba-sync-repl2", records: 1000, valueSize: 100, getFrac: 0.5, shards: 1, syncWrites: true, replicas: 2, quorum: 2,
		why: "ycsba-sync with Replicas=2 Quorum=2: the only workload where replication and the mirror fsyncs do work; ycsba-sync is its single-node baseline"},
	{name: "scanmix-2shard", records: 1000, valueSize: 100, getFrac: 0.45, scanFrac: 0.10, shards: 2,
		why: "2 shards, 45% put / 45% get / 10% ShardedSession.Scan(userNN, 50) with 11 hits, no fsync: shard routing, multi-invoke scatter/gather, per-shard verify, MergeScans"},
	{name: "bigstate-restart", records: 20000, valueSize: 1000, getFrac: 0.05, shards: 1,
		why: "95% put / 5% get over 20000x1000B (21 MB sealed snapshot), no fsync: compaction re-seals and the recovery fold dominate; write cost, space and restart time trade off"},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Load model constants (all workloads): closed loop, one outstanding
// operation per client (Sec. 4.1), two client goroutines on two TCP
// connections — nproc of the reference sandbox — plus a third registered
// id that loads the keyspace and probes the deployment between windows.
const (
	numClients   = 2
	probeSession = numClients // index of the loader/probe session
	batchSize    = 16         // lcm-server's -batch default
	scanLimit    = 50
	scanPrefixLo = 10 // scans ask for "userNN", NN in [10, 100): 11 hits in 1000 keys
	scanPrefixHi = 100
	maxScanHits  = 16
	maxShards    = 4
)

type opKind uint8

const (
	opPut  opKind = iota + 1
	opGet         // Do(get), ordered in the shard's sequence
	opRead        // DoRead(get), answered from the durable snapshot
	opScan
)

// opRecord is what the timed loop keeps per operation, in preallocated
// per-session buffers; the oracle replays them after the window.
type opRecord struct {
	end    int64  // ns since the deployment's base, verified reply in hand
	seq    uint64 // sequence number assigned; opRead: the snapshot's
	stable uint64
	tag    uint64 // first 8 value bytes written (put) or observed (get/read, 0 = absent); opScan: index into scans
	lat    uint32 // ns, saturating
	key    uint32 // key index; opScan: the prefix number NN
	kind   opKind
	shard  uint8
	failed bool // the call returned an error
}

// scanObs is one scan's verified outcome: the sequence number each shard
// assigned and the merged entries.
type scanObs struct {
	seqs [maxShards]uint64
	n    int
	keys [maxScanHits]uint32
	tags [maxScanHits]uint64
}

// session is one connected client: a client.Session against one shard or
// a client.ShardedSession against several, exactly as lcm-client builds
// them, plus the buffers the driver loop fills.
type session struct {
	id      uint32
	single  *client.Session
	sharded *client.ShardedSession
	conn    *tracedConn // nil unless traced

	recs   []opRecord
	scans  []scanObs
	events []client.Observation // traced runs only: input to consistency.Log

	// done counts completed operations; the window controller reads it
	// from another goroutine. Padded so the two clients do not share a
	// cache line.
	_    [56]byte
	done atomic.Int64
	_    [56]byte
}

func (s *session) do(op []byte) (*core.Result, error) {
	if s.sharded != nil {
		return s.sharded.Do(op)
	}
	return s.single.Do(op)
}

func (s *session) read(op []byte) (*core.Result, error) {
	if s.sharded != nil {
		return s.sharded.DoRead(op)
	}
	return s.single.DoRead(op)
}

func (s *session) close() {
	if s.sharded != nil {
		_ = s.sharded.Close()
	} else {
		_ = s.single.Close()
	}
}

// deployment is the real serving stack in one process: host.New with
// lcm-server's serving defaults over a FileStore in a temp dir, the
// latency model off everywhere, a loopback TCP listener, three sessions.
type deployment struct {
	w        *workload
	dir      string
	base     time.Time // origin of every timestamp in records and spans
	tr       *tracer   // nil in timed runs
	store    *countingStore
	server   *host.Server
	listener transport.Listener
	served   chan struct{}
	sessions []*session

	gen      *ycsb.Workload
	keys     []string
	keyShard []uint8
	onShard0 []int    // indices of the keys shard 0 owns
	scanOps  [][]byte // kvs.Scan("userNN", scanLimit), indexed by NN

	setup time.Duration // deploy + bootstrap + load
}

func (d *deployment) since() int64 { return int64(time.Since(d.base)) }

// clientRNG derives one session's generator from the run seed.
func clientRNG(seed int64, session int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(session)*7919 + 1))
}

// valueTag is the part of a value the oracle compares: ycsb values vary
// in their first 8 bytes only.
func valueTag[T string | []byte](v T) uint64 {
	if len(v) < 8 {
		return 0
	}
	var tag uint64
	for i := 0; i < 8; i++ {
		tag |= uint64(v[i]) << (8 * i)
	}
	return tag
}

// deploy brings the stack up and loads the keyspace. expectOps sizes the
// per-client record buffers so the timed loop does not grow them.
func deploy(w *workload, seed int64, tmpBase string, tr *tracer, expectOps int) (d *deployment, err error) {
	start := time.Now()
	if w.shards > maxShards {
		return nil, fmt.Errorf("workload %s: %d shards exceed %d", w.name, w.shards, maxShards)
	}
	dir, err := os.MkdirTemp(tmpBase, w.name+"-")
	if err != nil {
		return nil, err
	}
	d = &deployment{w: w, dir: dir, base: start, tr: tr, served: make(chan struct{})}
	if tr != nil {
		d.base = tr.base
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()

	model := latency.None() // injected latency is 0 everywhere
	platform, err := tee.NewPlatform("lcm-bench-platform",
		tee.WithLatencyModel(model), tee.WithCounterStore(filepath.Join(dir, "tmc")))
	if err != nil {
		return nil, err
	}
	attestation := tee.NewAttestationService()
	attestation.Register(platform)
	files, err := stablestore.NewFileStore(dir, w.syncWrites, model)
	if err != nil {
		return nil, err
	}
	d.store = &countingStore{inner: files, tr: tr}

	// Delta sealing and adaptive compaction are TrustedConfig's defaults.
	trusted := core.TrustedConfig{ServiceName: "kvs", NewService: kvs.Factory(), Attestation: attestation}
	factory := core.NewTrustedFactory(trusted)
	if tr != nil {
		factory = tracedFactory(trusted, tr)
	}
	d.server, err = host.New(host.Config{
		Platform:      platform,
		Factory:       factory,
		Store:         d.store,
		Shards:        w.shards,
		BatchSize:     batchSize,
		GroupCommit:   true,
		SnapshotReads: w.snapReads,
		Replicas:      w.replicas,
		Quorum:        w.quorum,
	})
	if err != nil {
		return nil, err
	}
	d.store.stateSlot0 = d.server.ShardSlot(0, core.SlotStateBlob)

	ids := make([]uint32, numClients+1)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	kcs := make([]aead.Key, w.shards)
	for shard := range kcs {
		admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
		if err := admin.Bootstrap(d.server.ShardCall(shard), ids); err != nil {
			return nil, fmt.Errorf("bootstrap shard %d: %w", shard, err)
		}
		kcs[shard] = admin.CommunicationKey()
	}

	d.listener, err = transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		defer close(d.served)
		_ = d.server.Serve(d.listener) // returns once the listener closes
	}()

	d.gen = ycsb.WorkloadA(w.records, w.valueSize)
	d.keys = d.gen.LoadKeys()
	d.keyShard = make([]uint8, len(d.keys))
	for i, k := range d.keys {
		d.keyShard[i] = uint8(service.ShardIndex(k, w.shards))
		if d.keyShard[i] == 0 {
			d.onShard0 = append(d.onShard0, i)
		}
	}
	d.scanOps = make([][]byte, scanPrefixHi)
	for nn := scanPrefixLo; nn < scanPrefixHi; nn++ {
		d.scanOps[nn] = kvs.Scan(fmt.Sprintf("user%d", nn), scanLimit)
	}

	for i, id := range ids {
		var conn transport.Conn
		if conn, err = transport.DialTCP(d.listener.Addr()); err != nil {
			return nil, err
		}
		s := &session{id: id}
		if tr != nil {
			s.conn = &tracedConn{inner: conn, tr: tr}
			conn = s.conn
		}
		cfg := client.Config{Timeout: 5 * time.Second, Retries: 2} // lcm-client's
		if tr != nil {
			horizon := uint64(w.records + consistencyEvents)
			cfg.Observe = func(o client.Observation) {
				if o.Result.Seq <= horizon {
					s.events = append(s.events, o)
				}
			}
		}
		if w.shards > 1 {
			s.sharded = client.NewSharded(conn, id, kcs, kvs.New(), cfg)
		} else {
			s.single = client.New(conn, id, kcs[0], cfg)
		}
		n := expectOps
		if i == probeSession {
			n = 0
		}
		// Every session also takes a share of the two read-backs.
		s.recs = make([]opRecord, 0, n+w.records+64)
		if w.scanFrac > 0 {
			s.scans = make([]scanObs, 0, int(float64(n)*w.scanFrac*1.5)+16)
		}
		d.sessions = append(d.sessions, s)
	}

	// Load: the probe session writes every key once.
	loader := d.sessions[probeSession]
	rng := clientRNG(seed, probeSession)
	for idx := range d.keys {
		if rec := d.put(loader, idx, d.gen.Value(rng)); rec.failed {
			return nil, fmt.Errorf("load key %d failed", idx)
		}
	}
	d.setup = time.Since(start)
	return d, nil
}

// close tears the deployment down and removes its directory. It waits for
// the accept loop and every host goroutine to end.
func (d *deployment) close() {
	for _, s := range d.sessions {
		s.close()
	}
	if d.listener != nil {
		_ = d.listener.Close()
		<-d.served
	}
	if d.server != nil {
		d.server.Shutdown()
	}
	_ = os.RemoveAll(d.dir)
}

// begin/end bracket one client operation. Untraced they only read the
// clock; traced they also open the client.do span the session's Send and
// reply-wait spans hang under.
func (d *deployment) begin(s *session) (start int64, spanID uint64) {
	if d.tr != nil {
		spanID = d.tr.newID()
		s.conn.ref.Store(uint64(len(s.recs)))
		s.conn.parent.Store(spanID)
	}
	return d.since(), spanID
}

func (d *deployment) end(s *session, start int64, spanID uint64, rec opRecord, err error) opRecord {
	rec.end = d.since()
	if lat := rec.end - start; lat < int64(^uint32(0)) {
		rec.lat = uint32(lat)
	} else {
		rec.lat = ^uint32(0)
	}
	rec.failed = err != nil
	if d.tr != nil {
		s.conn.parent.Store(0)
		d.tr.add(span{ID: spanID, Ref: uint64(len(s.recs)), Start: start, End: rec.end, N: 1, Kind: spClientDo})
	}
	s.recs = append(s.recs, rec)
	s.done.Add(1)
	return rec
}

func (d *deployment) put(s *session, idx int, value string) opRecord {
	rec := opRecord{kind: opPut, key: uint32(idx), shard: d.keyShard[idx], tag: valueTag(value)}
	start, sp := d.begin(s)
	res, err := s.do(kvs.Put(d.keys[idx], value))
	if err == nil {
		rec.seq, rec.stable = res.Seq, res.Stable
	}
	return d.end(s, start, sp, rec, err)
}

// get reads one key through Do, or through DoRead when snapshot is set.
func (d *deployment) get(s *session, idx int, snapshot bool) opRecord {
	rec := opRecord{kind: opGet, key: uint32(idx), shard: d.keyShard[idx]}
	op := kvs.Get(d.keys[idx])
	start, sp := d.begin(s)
	var res *core.Result
	var err error
	if snapshot {
		rec.kind = opRead
		res, err = s.read(op)
	} else {
		res, err = s.do(op)
	}
	if err == nil {
		rec.seq, rec.stable = res.Seq, res.Stable
		var kv kvs.Result
		if kv, err = kvs.DecodeResult(res.Value); err == nil && kv.Found {
			rec.tag = valueTag(kv.Value)
		}
	}
	return d.end(s, start, sp, rec, err)
}

var errScanShape = errors.New("scan result does not fit the oracle's record")

func (d *deployment) scan(s *session, nn int) opRecord {
	rec := opRecord{kind: opScan, key: uint32(nn), tag: uint64(len(s.scans))}
	var obs scanObs
	start, sp := d.begin(s)
	res, err := s.sharded.Scan(d.scanOps[nn])
	if err == nil {
		for shard, r := range res.Results {
			obs.seqs[shard] = r.Seq
		}
		var entries []kvs.ScanEntry
		if entries, err = kvs.DecodeScanResult(res.Merged); err == nil {
			if len(entries) > maxScanHits {
				err = errScanShape
			}
			for _, e := range entries[:min(len(entries), maxScanHits)] {
				idx, ok := keyIndex(e.Key)
				if !ok {
					err = errScanShape
				}
				obs.keys[obs.n], obs.tags[obs.n] = uint32(idx), valueTag(e.Value)
				obs.n++
			}
		}
	}
	s.scans = append(s.scans, obs)
	return d.end(s, start, sp, rec, err)
}

// keyIndex recovers the record index from a ycsb key ("user<idx>xxx…").
func keyIndex(key string) (int, bool) {
	const prefix = "user"
	if len(key) <= len(prefix) || key[:len(prefix)] != prefix {
		return 0, false
	}
	idx, digits := 0, 0
	for _, c := range key[len(prefix):] {
		if c < '0' || c > '9' {
			break
		}
		idx = idx*10 + int(c-'0')
		digits++
	}
	return idx, digits > 0
}
