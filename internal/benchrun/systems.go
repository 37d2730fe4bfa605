// Package benchrun assembles the systems under test and regenerates every
// table and figure of the paper's evaluation (Sec. 6). README.md's
// "Evaluation" section is the experiment index.
package benchrun

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lcm/internal/aead"
	"lcm/internal/baseline"
	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/host"
	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/tmc"
	"lcm/internal/transport"
	"lcm/internal/ycsb"
)

// System identifies one evaluated series (the legend of Figs. 5-6).
type System string

// The seven series of Figs. 5-6 plus shared constants.
const (
	SysNative   System = "Native"
	SysRedis    System = "Redis TLS"
	SysSGX      System = "SGX"
	SysSGXBatch System = "SGX with batching"
	SysLCM      System = "LCM"
	SysLCMBatch System = "LCM with batching"
	SysSGXTMC   System = "SGX + TMC"
)

// AllSystems lists every series in the paper's legend order.
func AllSystems() []System {
	return []System{SysSGX, SysSGXBatch, SysNative, SysLCM, SysLCMBatch, SysRedis, SysSGXTMC}
}

// DefaultBatch is the batching depth of the paper's prototype (Sec. 6.4:
// "batching of up to 16 operations").
const DefaultBatch = 16

// Options configures one deployment.
type Options struct {
	// Model injects the hardware latencies; nil means latency.Default().
	Model *latency.Model
	// SyncWrites selects the Fig. 6 configuration (fsync on the state
	// path) instead of Figs. 4-5 (async).
	SyncWrites bool
	// Dir is a scratch directory for AOFs and sealed-state files.
	Dir string
	// Clients is the number of sessions the deployment must support (the
	// LCM group size).
	Clients int
	// Shards partitions an LCM deployment into this many independent
	// enclave instances (keyspace-sharded; see internal/host). 0 or 1
	// deploys the classic single enclave. Sessions become sharded
	// clients routing by key hash. Ignored by the non-LCM systems.
	Shards int
	// BeaconInterval turns on the host's chain-heartbeat beacon at this
	// period (host.Config.BeaconInterval); 0 disables. The clone
	// ablation sweeps it against throughput and detection latency. LCM
	// only.
	BeaconInterval time.Duration
}

// Deployment is a running system under test.
type Deployment struct {
	system  System
	net     *transport.InmemNetwork
	model   *latency.Model
	key     aead.Key   // channel key (baselines) or shard 0's kC (LCM)
	keys    []aead.Key // per-shard kC (sharded LCM deployments)
	shards  int
	lcm     bool
	host    *host.Server // LCM deployments: reshards, status, attacks
	nextID  atomic.Uint32
	cleanup []func()

	sessMu   sync.Mutex
	sessions []baseline.Session

	// fastLoad, when set, populates the store with one large batch —
	// used for the enclave-hosted baselines where per-record round trips
	// (and for SGX+TMC, per-record counter increments) would dominate
	// the load phase.
	fastLoad func(ops [][]byte) error
}

// Close closes every session it handed out, then tears the servers down.
func (d *Deployment) Close() {
	d.sessMu.Lock()
	for _, s := range d.sessions {
		_ = s.Close()
	}
	d.sessions = nil
	d.sessMu.Unlock()
	for i := len(d.cleanup) - 1; i >= 0; i-- {
		d.cleanup[i]()
	}
}

// System returns the deployed series.
func (d *Deployment) System() System { return d.system }

// Reshard live-reshards an LCM deployment to newShards keyspace shards.
// Connected sharded sessions observe refresh errors and must adopt the
// new generation (client.ShardedSession.Refresh).
func (d *Deployment) Reshard(newShards int) (*host.ReshardStats, error) {
	if d.host == nil {
		return nil, fmt.Errorf("benchrun: %s is not an LCM deployment", d.system)
	}
	return d.host.Reshard(newShards, nil)
}

// Dial opens a raw connection to the deployment's server — what a
// refreshed session needs after a reshard.
func (d *Deployment) Dial() (transport.Conn, error) {
	return d.net.Dial("server")
}

// rttDB wraps a session as a ycsb.DB, charging the client-observed
// network round trip per operation. The RTT is a sleep, so concurrent
// clients overlap — the non-enclave systems scale with the client count
// while the single-threaded enclave saturates, which is the load-bearing
// shape of Fig. 5.
type rttDB struct {
	session baseline.Session
	model   *latency.Model
}

func (db *rttDB) Read(key string) error {
	db.model.WaitRTT()
	_, _, err := db.session.Get(key)
	return err
}

func (db *rttDB) Update(key, value string) error {
	db.model.WaitRTT()
	return db.session.Put(key, value)
}

// lcmDoer is the operation surface shared by the plain and sharded
// client sessions.
type lcmDoer interface {
	Do(op []byte) (*core.Result, error)
	Close() error
}

// lcmSession adapts an LCM client session (single or sharded) to
// baseline.Session.
type lcmSession struct {
	inner lcmDoer
}

func (s *lcmSession) Get(key string) ([]byte, bool, error) {
	res, err := s.inner.Do(kvs.Get(key))
	if err != nil {
		return nil, false, err
	}
	kv, err := kvs.DecodeResult(res.Value)
	if err != nil {
		return nil, false, err
	}
	return kv.Value, kv.Found, nil
}

func (s *lcmSession) Put(key, value string) error {
	res, err := s.inner.Do(kvs.Put(key, value))
	if err != nil {
		return err
	}
	if _, err := kvs.DecodeResult(res.Value); err != nil {
		return err
	}
	return nil
}

func (s *lcmSession) Close() error { return s.inner.Close() }

// NewDB returns a connected ycsb.DB for one simulated client.
func (d *Deployment) NewDB(int) (ycsb.DB, error) {
	session, err := d.NewSession()
	if err != nil {
		return nil, err
	}
	return &rttDB{session: session, model: d.model}, nil
}

// NewShardedSession opens a raw sharded client session against an LCM
// deployment — the scatter-gather surface (Scan, RunTransfer) that the
// baseline.Session adapter does not expose. The session is closed by
// Close like any other.
func (d *Deployment) NewShardedSession(sharder service.Sharder) (*client.ShardedSession, error) {
	if !d.lcm {
		return nil, fmt.Errorf("benchrun: %s is not an LCM deployment", d.system)
	}
	conn, err := d.net.Dial("server")
	if err != nil {
		return nil, err
	}
	sess := client.NewSharded(conn, d.nextID.Add(1), d.keys, sharder, client.Config{})
	d.cleanup = append(d.cleanup, func() { sess.Close() })
	return sess, nil
}

// NewSession opens one client session against the deployment. Sessions
// are closed automatically by Close.
func (d *Deployment) NewSession() (baseline.Session, error) {
	session, err := d.newSession()
	if err != nil {
		return nil, err
	}
	d.sessMu.Lock()
	d.sessions = append(d.sessions, session)
	d.sessMu.Unlock()
	return session, nil
}

func (d *Deployment) newSession() (baseline.Session, error) {
	conn, err := d.net.Dial("server")
	if err != nil {
		return nil, err
	}
	switch d.system {
	case SysNative:
		return baseline.NewNativeSession(conn, d.key), nil
	case SysRedis:
		return baseline.NewRedisSession(conn, d.key), nil
	case SysSGX, SysSGXBatch, SysSGXTMC:
		return baseline.NewSGXSession(conn, d.key), nil
	case SysLCM, SysLCMBatch:
		id := d.nextID.Add(1)
		if d.shards > 1 {
			return &lcmSession{inner: client.NewSharded(conn, id, d.keys, kvs.New(), client.Config{})}, nil
		}
		return &lcmSession{inner: client.New(conn, id, d.key, client.Config{})}, nil
	default:
		return nil, fmt.Errorf("benchrun: unknown system %q", d.system)
	}
}

// Deploy starts one system under test.
func Deploy(sys System, opt Options) (*Deployment, error) {
	model := opt.Model
	if model == nil {
		model = latency.Default()
	}
	// Every deployment gets a private subdirectory: sealed state and AOFs
	// must never leak between deployments (a fresh platform cannot unseal
	// a predecessor's state and would halt at recovery).
	dir, err := os.MkdirTemp(opt.Dir, "deploy-*")
	if err != nil {
		return nil, err
	}
	opt.Dir = dir
	if opt.Clients <= 0 {
		opt.Clients = 32
	}
	key, err := aead.NewKey()
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		system: sys,
		net:    transport.NewInmemNetwork(),
		model:  model,
		key:    key,
	}
	listener, err := d.net.Listen("server")
	if err != nil {
		return nil, err
	}
	d.cleanup = append(d.cleanup, func() { listener.Close() })

	switch sys {
	case SysNative:
		srv, err := baseline.NewNativeServer(baseline.NativeConfig{
			Key:        key,
			AOFPath:    filepath.Join(opt.Dir, "native.aof"),
			SyncWrites: opt.SyncWrites,
			Model:      model,
		})
		if err != nil {
			return nil, err
		}
		go srv.Serve(listener)
		d.cleanup = append(d.cleanup, srv.Shutdown)

	case SysRedis:
		srv, err := baseline.NewRedisServer(baseline.RedisConfig{
			Key:        key,
			AOFPath:    filepath.Join(opt.Dir, "redis.aof"),
			SyncWrites: opt.SyncWrites,
			Model:      model,
		})
		if err != nil {
			return nil, err
		}
		go srv.Serve(listener)
		d.cleanup = append(d.cleanup, srv.Shutdown)

	case SysSGX, SysSGXBatch, SysSGXTMC:
		platform, err := tee.NewPlatform("bench-platform", tee.WithLatencyModel(model))
		if err != nil {
			return nil, err
		}
		var counter *tmc.Counter
		if sys == SysSGXTMC {
			counter = tmc.New(model)
		}
		store, err := stablestore.NewFileStore(filepath.Join(opt.Dir, "sgx-store"), opt.SyncWrites, model)
		if err != nil {
			return nil, err
		}
		batch := 1
		if sys == SysSGXBatch {
			batch = DefaultBatch
		}
		srv, err := host.New(host.Config{
			Platform:  platform,
			Factory:   baseline.NewSGXFactory(key, counter),
			Store:     store,
			BatchSize: batch,
			StateSlot: baseline.SGXStateSlot(),
		})
		if err != nil {
			return nil, err
		}
		go srv.Serve(listener)
		d.cleanup = append(d.cleanup, srv.Shutdown)
		d.fastLoad = func(ops [][]byte) error {
			sealed := make([][]byte, len(ops))
			for i, op := range ops {
				ct, err := baseline.SealSGXRequest(key, op)
				if err != nil {
					return err
				}
				sealed[i] = ct
			}
			_, err := srv.ECall(core.EncodeBatchCall(sealed))
			return err
		}

	case SysLCM, SysLCMBatch:
		platform, err := tee.NewPlatform("bench-platform", tee.WithLatencyModel(model))
		if err != nil {
			return nil, err
		}
		attestation := tee.NewAttestationService()
		attestation.Register(platform)
		store, err := stablestore.NewFileStore(filepath.Join(opt.Dir, "lcm-store"), opt.SyncWrites, model)
		if err != nil {
			return nil, err
		}
		batch := 1
		if sys == SysLCMBatch {
			batch = DefaultBatch
		}
		shards := opt.Shards
		if shards <= 0 {
			shards = 1
		}
		srv, err := host.New(host.Config{
			Platform: platform,
			Factory: core.NewTrustedFactory(core.TrustedConfig{
				ServiceName: "kvs",
				NewService:  kvs.Factory(),
				Attestation: attestation,
			}),
			Store:          store,
			Shards:         shards,
			BatchSize:      batch,
			BeaconInterval: opt.BeaconInterval,
		})
		if err != nil {
			return nil, err
		}
		go srv.Serve(listener)
		d.cleanup = append(d.cleanup, srv.Shutdown)
		d.host = srv
		d.shards = shards

		// Every shard is an independent LCM instance: its own admin
		// bootstrap, its own kP/kC, the same client group.
		ids := make([]uint32, opt.Clients)
		for i := range ids {
			ids[i] = uint32(i + 1)
		}
		for shard := 0; shard < shards; shard++ {
			admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
			if err := admin.Bootstrap(srv.ShardCall(shard), ids); err != nil {
				return nil, fmt.Errorf("benchrun: bootstrap shard %d: %w", shard, err)
			}
			d.keys = append(d.keys, admin.CommunicationKey())
		}
		d.key = d.keys[0]
		d.lcm = true

	default:
		return nil, fmt.Errorf("benchrun: unknown system %q", sys)
	}
	return d, nil
}
