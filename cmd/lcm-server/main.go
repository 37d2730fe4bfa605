// Command lcm-server runs an LCM-protected service: a simulated TEE
// platform hosting the trusted LCM context, the untrusted server
// application with request batching, and file-backed stable storage. The
// hosted functionality is selected with -service: the key-value store
// (kvs, default) or the bank (bank — named accounts with transfers,
// including the cross-shard escrow phases lcm-client's transfer verb
// drives).
//
// On startup it prints the bootstrap material (platform registration and
// the communication key) that lcm-client needs; in a real deployment the
// admin distributes kC over secure channels (Sec. 4.3).
//
// Usage:
//
//	lcm-server -addr 127.0.0.1:7000 -dir /tmp/lcm-data -batch 16 \
//	           -clients 8 [-service kvs|bank] [-shards N] [-sync] \
//	           [-replicas N [-quorum Q]] [-beaconinterval D] \
//	           [-epochinterval D] [-evictafter E] \
//	           [-cloneshard I [-cloneafter D]] [-keepalive D] [-iotimeout D]
//
// -epochinterval arms the membership epoch ticker: every interval each
// shard seals an epoch, batching staged evictions (rotating kC when any
// fire). -evictafter evicts clients that have produced no liveness
// signal (invoke, churn, heartbeat) for that many epochs, so dead clients
// leave V instead of holding back the majority that stability (Sec. 4.5)
// counts over every registered client. Clients keep themselves off the
// eviction list with SessionConfig.HeartbeatInterval or
// `lcm-client ... join`-era heartbeats.
//
// -beaconinterval arms the chain-heartbeat beacon: every instance
// periodically commits a self-attesting beacon record onto its sealed
// chain, tick-driven by the platform's trusted monotonic counter, so a
// cloned enclave collides with its twin within two intervals and halts
// with a clone-detection verdict. -cloneshard injects exactly that attack
// after -cloneafter (printing "clone injected" and, once a twin halts,
// "clone detected: ...") — the demo/chaos arm the swarm harness drives.
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, the group
// committers drain behind each shard's persistence barrier, and the
// process exits 0. Restarting over a -dir that already holds sealed state
// resumes the deployment instead of re-bootstrapping (clients keep their
// previous communication keys).
//
// -replicas mirrors every shard's sealed delta chain onto N peer enclave
// instances (enclave-to-enclave chain replication): replies are released
// only once -quorum durable copies exist (primary's fsync plus peer
// acks; 0 picks the majority default), and a primary that restarts on a
// rolled-back disk heals from a peer suffix instead of halting.
package main

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"lcm/internal/core"
	"lcm/internal/counter"
	"lcm/internal/host"
	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lcm-server:", err)
		os.Exit(1)
	}
}

// platformSecret returns the simulated platform's root secret, persisted
// alongside the stable storage. On real hardware the root secret is fused
// into the CPU, so sealing keys survive restarts of the same machine; the
// simulation gets the same property by creating the secret once per -dir
// and reading it back on relaunch. Without this a restarted server could
// never unseal its own state and would silently re-bootstrap with a fresh
// communication key, orphaning every client.
func platformSecret(dir string) ([]byte, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage dir: %w", err)
	}
	path := filepath.Join(dir, "platform-secret")
	secret, err := os.ReadFile(path)
	if err == nil {
		if len(secret) != 32 {
			return nil, fmt.Errorf("%s: corrupt platform secret (%d bytes, want 32)", path, len(secret))
		}
		return secret, nil
	}
	if !os.IsNotExist(err) {
		return nil, fmt.Errorf("platform secret: %w", err)
	}
	secret = make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("platform secret: %w", err)
	}
	if err := os.WriteFile(path, secret, 0o600); err != nil {
		return nil, fmt.Errorf("platform secret: %w", err)
	}
	return secret, nil
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:7000", "listen address")
		dir     = flag.String("dir", "lcm-data", "stable storage directory")
		batch   = flag.Int("batch", 16, "cap on a request batch; batches form from requests queued behind a running ecall (1 disables batching)")
		clients = flag.Int("clients", 8, "client group size (ids 1..n)")
		shards  = flag.Int("shards", 1, "keyspace shards (independent enclave instances)")
		svcName = flag.String("service", "kvs", "hosted functionality: kvs | bank")
		sync    = flag.Bool("sync", false, "fsync every state write (crash tolerance, Fig. 6 mode)")
		group   = flag.Bool("groupcommit", true, "overlap the next ecall with the previous commit, so concurrent batches' appends share one fsync")
		snap    = flag.Bool("snapshotreads", false, "serve classified read-only ops from the durable snapshot, outside the write loop (clients use DoRead)")
		scale   = flag.Float64("scale", 1.0, "latency model scale (0 disables injected latencies)")

		replicas = flag.Int("replicas", 0, "peer enclave replicas per shard (chain replication; 0 disables)")
		quorum   = flag.Int("quorum", 0, "durable copies required before a reply is released (0 = majority)")

		beacon = flag.Duration("beaconinterval", 0, "chain-heartbeat beacon period per enclave instance (0 disables; arms clone detection via the platform counter)")

		epochInterval = flag.Duration("epochinterval", 0, "membership epoch seal period (0 disables the ticker; epochs then advance only on admin request)")
		evictAfter    = flag.Int("evictafter", 0, "evict clients silent for this many membership epochs (0 disables heartbeat-based eviction)")

		reshardTo    = flag.Int("reshardto", 0, "live-reshard the deployment to this many shards (with -reshardafter)")
		reshardAfter = flag.Duration("reshardafter", 30*time.Second, "delay before the -reshardto live reshard")

		cloneShard = flag.Int("cloneshard", -1, "inject a cloning attack against this shard after -cloneafter (testing/demo)")
		cloneAfter = flag.Duration("cloneafter", 10*time.Second, "delay before the -cloneshard clone injection")

		keepAlive = flag.Duration("keepalive", 0, "TCP keep-alive probe period on accepted connections (0 disables)")
		ioTimeout = flag.Duration("iotimeout", 0, "per-frame read/write deadline on accepted connections (0 disables)")
	)
	flag.Parse()

	var factory service.Factory
	switch *svcName {
	case "kvs":
		factory = kvs.Factory()
	case "bank":
		factory = counter.Factory()
	default:
		return fmt.Errorf("unknown -service %q (want kvs or bank)", *svcName)
	}

	model := latency.Scaled(*scale)
	secret, err := platformSecret(*dir)
	if err != nil {
		return err
	}
	// The counter store gives the simulated TMC hardware's non-volatility:
	// beacon-claimed ticks survive a server restart, so an honest relaunch
	// over the same -dir resumes inside the counter tolerance window
	// instead of tripping a false clone detection.
	platform, err := tee.NewPlatform("lcm-server-platform",
		tee.WithLatencyModel(model), tee.WithRootSecret(secret),
		tee.WithCounterStore(filepath.Join(*dir, "tmc")))
	if err != nil {
		return err
	}
	attestation := tee.NewAttestationService()
	attestation.Register(platform)

	store, err := stablestore.NewFileStore(*dir, *sync, model)
	if err != nil {
		return err
	}

	server, err := host.New(host.Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName:      *svcName,
			NewService:       factory,
			Attestation:      attestation,
			EvictAfterEpochs: *evictAfter,
		}),
		Store:          store,
		Shards:         *shards,
		BatchSize:      *batch,
		GroupCommit:    *group,
		SnapshotReads:  *snap,
		Replicas:       *replicas,
		Quorum:         *quorum,
		BeaconInterval: *beacon,
		EpochInterval:  *epochInterval,
	})
	if err != nil {
		return err
	}

	// Each shard is an independent LCM instance: its own bootstrap, its
	// own communication key, the same client group. A shard whose sealed
	// state survived a previous run resumes instead: the enclave restored
	// its context (including kC) from stable storage, so bootstrapping
	// again would wipe acknowledged history — clients keep using the key
	// printed by the run that did bootstrap.
	ids := make([]uint32, *clients)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	keyParts := make([]string, 0, server.Shards())
	stateKeyParts := make([]string, 0, server.Shards())
	resumed := 0
	for shard := 0; shard < server.Shards(); shard++ {
		st, err := core.QueryStatus(server.ShardCall(shard))
		if err != nil {
			return fmt.Errorf("status shard %d: %w", shard, err)
		}
		if st.Provisioned {
			resumed++
			keyParts = append(keyParts, "resumed")
			stateKeyParts = append(stateKeyParts, "resumed")
			continue
		}
		admin := core.NewAdmin(attestation, core.ProgramIdentity(*svcName))
		if err := admin.Bootstrap(server.ShardCall(shard), ids); err != nil {
			return fmt.Errorf("bootstrap shard %d: %w", shard, err)
		}
		keyParts = append(keyParts, hex.EncodeToString(admin.CommunicationKey().Bytes()))
		stateKeyParts = append(stateKeyParts, hex.EncodeToString(admin.StateKey().Bytes()))
	}

	listener, err := transport.ListenTCPOptions(*addr, transport.TCPOptions{
		ReadTimeout:  *ioTimeout,
		WriteTimeout: *ioTimeout,
		KeepAlive:    *keepAlive,
	})
	if err != nil {
		return err
	}
	defer listener.Close()

	fmt.Printf("lcm-server listening on %s\n", listener.Addr())
	fmt.Printf("  service:   %s (LCM-protected, shards=%d, batch=%d, sync=%v, groupcommit=%v)\n",
		*svcName, server.Shards(), *batch, *sync, *group)
	if *replicas > 0 {
		fmt.Printf("  replication: %d peer replicas per shard, quorum %d (0 = majority); rollback heals instead of halting\n",
			*replicas, *quorum)
	}
	fmt.Printf("  clients:   ids 1..%d\n", *clients)
	fmt.Printf("  kC:        %s\n", strings.Join(keyParts, ","))
	fmt.Printf("  kP:        %s (admin state key — pass as -statekey to `lcm-client members`)\n", strings.Join(stateKeyParts, ","))
	if resumed > 0 {
		fmt.Printf("resumed %d shard(s) from sealed state in %s; clients keep their previous kC\n", resumed, *dir)
	} else {
		fmt.Println("pass -key to lcm-client (comma-separated, one kC per shard);")
		fmt.Println("the admin would distribute them over secure channels")
	}

	if *beacon > 0 {
		fmt.Printf("  beacons:   every %v per instance (clone detection armed; clients should set a freshness horizon > 2 intervals)\n", *beacon)
	}
	if *epochInterval > 0 {
		fmt.Printf("  epochs:    sealed every %v per shard (eviction after %d silent epochs; 0 = disabled)\n",
			*epochInterval, *evictAfter)
	}

	if *cloneShard >= 0 {
		go func() {
			time.Sleep(*cloneAfter)
			idx, err := server.AttackClone(*cloneShard)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lcm-server: clone:", err)
				return
			}
			fmt.Printf("clone injected: shard %d duplicated as instance %d; new connections now land on the clone\n",
				*cloneShard, idx)
			// Watch both twins: whichever loses the beacon counter race
			// halts with ErrCloneDetected.
			for {
				for _, i := range []int{*cloneShard, idx} {
					enc := server.Enclave(i)
					if enc == nil {
						continue
					}
					if herr := enc.HaltedErr(); herr != nil && errors.Is(herr, core.ErrCloneDetected) {
						fmt.Printf("clone detected: instance %d halted: %v\n", i, herr)
						return
					}
				}
				time.Sleep(100 * time.Millisecond)
			}
		}()
	}

	if *reshardTo > 0 {
		go func() {
			time.Sleep(*reshardAfter)
			fmt.Printf("live reshard %d -> %d shards...\n", server.Shards(), *reshardTo)
			stats, err := server.Reshard(*reshardTo, nil)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lcm-server: reshard:", err)
				return
			}
			fmt.Printf("resharded to %d shards (generation %d, pause %v)\n",
				stats.NewShards, stats.Gen, stats.Pause)
			fmt.Println("clients: run `lcm-client ... refresh` to verify the handoffs and adopt the new keys")
		}()
	}

	// Graceful shutdown on SIGINT/SIGTERM: close the listener (stop
	// accepting; Serve returns), drain the group committers behind each
	// shard's persistence barrier so everything acknowledged is durable,
	// then tear down and exit 0. A second signal exits immediately.
	var draining atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		draining.Store(true)
		fmt.Printf("lcm-server: %v: draining...\n", sig)
		listener.Close()
		<-sigCh
		os.Exit(1)
	}()

	defer server.Shutdown()
	err = server.Serve(listener)
	if draining.Load() {
		server.Drain()
		fmt.Println("lcm-server: drained; exiting")
		return nil
	}
	return err
}
