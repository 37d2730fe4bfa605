// Migration demo (Sec. 4.6.2): a live LCM-protected service moves from
// one TEE platform to another — no trusted third party, and
// rollback/forking detection preserved across the move.
//
// A migration is a reshard whose targets run on another server
// (host.Server.MigrateTo). The origin enclave leads: it verifies the
// target's attestation quote (same program, genuine platform) and seals
// the new generation's keys to it. The service state travels outside
// the secure channel: each datacenter has its own stable storage, so the
// origin's host stages its sealed base blob + delta chain into the
// target's storage, and the target folds that copy, refusing one that
// does not end at the head the origin pinned. The origin then retires
// and seals each client's V entry into a handoff under the old kC.
//
// Clients check that handoff before they move: a client's own V entry
// must match the context it holds — the boundary check of a reshard. An
// operation that executed just before the freeze, whose reply was lost,
// is recovered from the handoff's cached reply. The client then starts a
// fresh context under the new kC on the target.
//
//	go run ./examples/migration
package main

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"lcm"
	"lcm/internal/counter"
	"lcm/internal/host"
	"lcm/internal/service"
	"lcm/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "migration:", err)
		os.Exit(1)
	}
}

// startServer deploys the LCM-protected bank service on a platform over
// its own stable storage.
func startServer(platformID string, attestation *lcm.AttestationService,
	network *transport.InmemNetwork, endpoint string) (*host.Server, func(), error) {
	platform, err := lcm.NewPlatform(platformID)
	if err != nil {
		return nil, nil, err
	}
	attestation.Register(platform)
	server, err := lcm.NewServer(lcm.ServerConfig{
		Platform: platform,
		Factory: lcm.NewTrustedFactory(lcm.TrustedConfig{
			ServiceName: "bank",
			NewService:  func() service.Service { return counter.New() },
			Attestation: attestation,
		}),
		Store:     lcm.NewMemStore(),
		BatchSize: 4,
	})
	if err != nil {
		return nil, nil, err
	}
	listener, err := network.Listen(endpoint)
	if err != nil {
		return nil, nil, err
	}
	go server.Serve(listener)
	stop := func() {
		listener.Close()
		server.Shutdown()
	}
	return server, stop, nil
}

// lossyConn loses the next frame it receives once armed: an operation
// that executes but whose reply never arrives.
type lossyConn struct {
	transport.Conn
	armed atomic.Bool
}

func (c *lossyConn) Recv() ([]byte, error) {
	for {
		b, err := c.Conn.Recv()
		if err != nil || !c.armed.CompareAndSwap(true, false) {
			return b, err
		}
	}
}

func run() error {
	attestation := lcm.NewAttestationService()
	network := lcm.NewInmemNetwork()

	// --- Origin deployment on platform A, bootstrapped for two clients.
	origin, stopOrigin, err := startServer("datacenter-A", attestation, network, "origin")
	if err != nil {
		return err
	}
	defer stopOrigin()
	admin := lcm.NewAdmin(attestation, lcm.ProgramIdentity("bank"))
	if err := admin.Bootstrap(origin.ECall, []uint32{1, 2}); err != nil {
		return err
	}
	kc := admin.CommunicationKey()
	cfg := lcm.SessionConfig{Timeout: 5 * time.Second}

	conn, err := network.Dial("origin")
	if err != nil {
		return err
	}
	alice := lcm.NewSession(conn, 1, kc, cfg)
	defer alice.Close()
	if _, err := alice.Do(counter.Inc("alice", 100)); err != nil {
		return err
	}
	res, err := alice.Do(counter.Transfer("alice", "bob", 40))
	if err != nil {
		return err
	}
	bal, _ := counter.DecodeResult(res.Value)
	fmt.Printf("on datacenter-A: alice=%d after paying bob 40 (seq=%d)\n", bal.Balance, res.Seq)

	// Bob pays alice 15 right before the move; the transfer executes on
	// the origin, but its reply is lost and it stays pending.
	conn, err = network.Dial("origin")
	if err != nil {
		return err
	}
	lossy := &lossyConn{Conn: conn}
	bob := lcm.NewSession(lossy, 2, kc, lcm.SessionConfig{Timeout: 200 * time.Millisecond})
	defer bob.Close()
	lossy.armed.Store(true)
	if _, err := bob.Do(counter.Transfer("bob", "alice", 15)); err == nil {
		return errors.New("the lost reply arrived")
	}
	fmt.Println("bob's transfer executed on datacenter-A; its reply was lost")

	// --- Target deployment on platform B: same program, own storage, an
	// enclave nobody provisioned.
	target, stopTarget, err := startServer("datacenter-B", attestation, network, "target")
	if err != nil {
		return err
	}
	defer stopTarget()

	// --- The move: attest, freeze, stage the sealed chain into B's
	// storage, export the handoffs, import and verify on B.
	stats, err := origin.MigrateTo(target, nil)
	if err != nil {
		return fmt.Errorf("migrate: %w", err)
	}
	status, err := lcm.QueryStatus(origin.ECall)
	if err != nil {
		return err
	}
	fmt.Printf("migrated to datacenter-B in %v (generation %d); datacenter-A retired=%v\n",
		stats.Pause.Round(time.Microsecond), stats.Gen, status.Retired)

	// --- Each client checks its own V entry in A's handoff and adopts B.
	// A plain session's state resumes as a one-shard sharded session,
	// which walks the generation boundary.
	dialTarget := func() (transport.Conn, error) { return network.Dial("target") }
	move := func(name string, sess *lcm.Session) (*lcm.ShardedSession, error) {
		conn, err := network.Dial("origin")
		if err != nil {
			return nil, err
		}
		old, err := lcm.ResumeShardedSession(conn, []*lcm.ClientState{sess.State()}, []lcm.Key{kc}, counter.New(), cfg)
		if err != nil {
			return nil, err
		}
		next, pending, err := old.Refresh(dialTarget)
		if err != nil {
			old.Close()
			return nil, fmt.Errorf("%s refresh: %w", name, err)
		}
		fmt.Printf("%s: handoff check passed (own V entry matches own context), now on generation %d\n", name, next.Gen())
		for _, p := range pending {
			if p.Executed {
				b, _ := counter.DecodeResult(p.Result.Value)
				fmt.Printf("%s: recovered the pending transfer's result from the handoff: ok=%v balance=%d seq=%d\n",
					name, b.OK, b.Balance, p.Result.Seq)
			}
		}
		return next, nil
	}
	alice2, err := move("alice", alice)
	if err != nil {
		return err
	}
	defer alice2.Close()
	bob2, err := move("bob", bob)
	if err != nil {
		return err
	}
	defer bob2.Close()

	// --- Service continues on B under fresh contexts and keys.
	if res, err = alice2.Do(counter.Read("alice")); err != nil {
		return fmt.Errorf("alice on datacenter-B: %w", err)
	}
	bal, _ = counter.DecodeResult(res.Value)
	fmt.Printf("on datacenter-B: alice=%d (seq=%d of a fresh chain)\n", bal.Balance, res.Seq)
	return nil
}
