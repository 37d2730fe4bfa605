// Command lcm-client is a CLI client for an LCM-protected service. Each
// invocation performs one operation and prints the result together with
// the protocol's consistency metadata: the operation's sequence number t
// and the latest majority-stable sequence number q.
//
// Usage (kvs, the default service):
//
//	lcm-client -addr 127.0.0.1:7000 -id 1 -key <hex kC> get <key>
//	lcm-client ... read <key>     (snapshot read; needs lcm-server -snapshotreads)
//	lcm-client ... put <key> <value>
//	lcm-client ... del <key>
//	lcm-client ... scan <prefix> [limit]
//	lcm-client ... status
//	lcm-client ... refresh
//
// Membership (churn-era API):
//
//	lcm-client ... join        registers this client in the group
//	lcm-client ... leave       retires it voluntarily (no key rotation)
//	lcm-client -statekey <hex kP> members
//	                           admin: prints the sealed group view
//	                           (epoch, members, evictions, current kC)
//
// join and leave go through the client's own session — no admin round
// trip; the joiner must hold the group's current kC (from the admin, out
// of band). members authenticates under the admin state key kP.
//
// Against a bank server (lcm-server -service bank):
//
//	lcm-client -service bank ... bal <account>
//	lcm-client -service bank ... inc <account> <amount>
//	lcm-client -service bank ... transfer <from> <to> <amount>
//
// Against a sharded server (lcm-server -shards N), pass all N
// communication keys comma-separated — the client then holds one
// protocol context per shard and routes each operation by its key hash,
// exactly like the library's ShardedSession. Two verbs become
// scatter-gather operations there:
//
//   - scan fans out to every shard in one multi-shard frame, verifies
//     each shard's reply on that shard's chain, and merges the sorted
//     results; one forked or halted shard fails the whole scan.
//   - transfer between accounts on different shards runs the two-phase
//     escrow (prepare → credit → settle), journaling the coordinator
//     state in <state>.tx after every phase. If a previous invocation
//     crashed mid-transfer, the next one resumes the journaled transfer
//     before doing anything else — so money is neither lost nor minted.
//
// When the server live-reshards (lcm-server -reshardto), operations
// start failing with a "resharded" error. The refresh verb then fetches
// the reshard handoffs, verifies each old shard's sealed handoff against
// this client's stored contexts — a rollback or fork slipped in during
// the move is DETECTED here, and the new generation refused — and on
// success writes fresh per-shard state files, records the adopted
// generation in <state>.gen, and prints the new communication keys to
// pass as -key from then on.
//
// Client state (tc, ts, hc — per shard) persists in -state so
// consecutive invocations form one continuous protocol session; deleting
// the file would make the enclave (correctly!) flag the stale context as
// a potential attack.
//
// The status command prints the host's aggregated operational view: one
// line per shard (sequence, stability, delta-chain and checkpoint state,
// group-commit counters) plus deployment totals.
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lcm/internal/aead"
	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/counter"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lcm-client:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7000", "server address")
		id        = flag.Uint("id", 1, "client identifier within the group")
		keyHex    = flag.String("key", "", "communication key(s) kC (hex; comma-separated, one per shard)")
		svcName   = flag.String("service", "kvs", "service the server hosts: kvs | bank")
		statePath = flag.String("state", "", "client state file (default lcm-client-<id>.state)")
		stateKey  = flag.String("statekey", "", "admin state key kP (hex) — members verb only")
		shardFlag = flag.Int("shard", 0, "shard a members query addresses")
		timeout   = flag.Duration("timeout", 5*time.Second, "reply timeout before retry")
		dialTO    = flag.Duration("dialtimeout", 0, "TCP connect timeout (0 = OS default)")
		keepAlive = flag.Duration("keepalive", 0, "TCP keep-alive probe period (0 disables)")
		ioTimeout = flag.Duration("iotimeout", 0, "per-frame read/write deadline (0 disables)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		return errors.New("usage: lcm-client [flags] get|read|put|del|scan|bal|inc|transfer|join|leave|members|status|refresh ...")
	}
	if *svcName != "kvs" && *svcName != "bank" {
		return fmt.Errorf("unknown -service %q (want kvs or bank)", *svcName)
	}

	cfg := client.Config{Timeout: *timeout, Retries: 2}
	tcpOpts := transport.TCPOptions{
		DialTimeout:  *dialTO,
		ReadTimeout:  *ioTimeout,
		WriteTimeout: *ioTimeout,
		KeepAlive:    *keepAlive,
	}

	if args[0] == "status" {
		// The aggregated host endpoint needs no protocol context — and
		// therefore no -key.
		conn, err := transport.DialTCPTimeout(*addr, tcpOpts)
		if err != nil {
			return err
		}
		sess := client.New(conn, uint32(*id), aead.Key{}, cfg)
		defer sess.Close()
		return printStatus(sess)
	}

	if args[0] == "members" {
		// An admin query: authenticates under kP, needs no client context.
		return runMembers(*addr, tcpOpts, *stateKey, *shardFlag)
	}

	keys, err := parseKeys(*keyHex)
	if err != nil {
		return err
	}

	conn, err := transport.DialTCPTimeout(*addr, tcpOpts)
	if err != nil {
		return err
	}

	if *statePath == "" {
		*statePath = fmt.Sprintf("lcm-client-%d.state", *id)
	}

	gen, err := readGen(*statePath)
	if err != nil {
		return err
	}
	cfg.Gen = gen

	if args[0] == "refresh" {
		return runRefresh(conn, uint32(*id), keys, *svcName, *statePath, cfg)
	}
	// A single key normally means the classic unsharded deployment — but
	// a client that adopted a reshard down to one shard (<state>.gen
	// exists) must keep using the sharded machinery: its state lives in
	// <state>.shard0 and its frames must carry the adopted generation.
	if len(keys) == 1 && gen == 0 {
		return runSingle(conn, uint32(*id), keys[0], *svcName, *statePath, cfg, args)
	}
	return runSharded(conn, uint32(*id), keys, *svcName, *statePath, cfg, args)
}

// genPath names the file recording the reshard generation this client
// has adopted.
func genPath(base string) string { return base + ".gen" }

// readGen loads the adopted generation. An absent file means generation
// 0; an unreadable or unparseable one is an error — silently treating it
// as 0 would stamp frames with the wrong generation and end in a false
// "server misbehaviour" report at the next refresh.
func readGen(base string) (uint64, error) {
	raw, err := os.ReadFile(genPath(base))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("read generation file %s: %w", genPath(base), err)
	}
	gen, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("corrupt generation file %s (re-run refresh after restoring it; deleting it mislabels this client's generation): %w", genPath(base), err)
	}
	return gen, nil
}

// writeGen records the adopted generation atomically (write + rename),
// so a crash mid-write cannot corrupt it.
func writeGen(base string, gen uint64) error {
	tmp := genPath(base) + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(gen, 10)), 0o600); err != nil {
		return fmt.Errorf("persist generation: %w", err)
	}
	if err := os.Rename(tmp, genPath(base)); err != nil {
		return fmt.Errorf("persist generation: %w", err)
	}
	return nil
}

// runRefresh adopts a completed live reshard: it verifies every old
// shard's handoff against this client's stored contexts, then writes
// fresh per-shard state files and prints the new generation's keys.
func runRefresh(conn transport.Conn, id uint32, keys []aead.Key, svcName, statePath string, cfg client.Config) error {
	states := make([]*core.ClientState, len(keys))
	for shard := range states {
		blob, err := os.ReadFile(shardStatePath(statePath, shard))
		if err != nil && shard == 0 && len(keys) == 1 {
			// A single-context client persists its state unsuffixed.
			blob, err = os.ReadFile(statePath)
		}
		if err != nil {
			return fmt.Errorf("refresh needs this client's state files: %w", err)
		}
		if states[shard], err = core.DecodeClientState(blob); err != nil {
			return fmt.Errorf("corrupt state file for shard %d: %w", shard, err)
		}
	}
	session, err := client.ResumeSharded(conn, states, keys, sharderFor(svcName), cfg)
	if err != nil {
		return err
	}
	defer session.Close()

	info, err := session.FetchReshardInfo()
	if err != nil {
		return fmt.Errorf("fetch reshard info: %w", err)
	}
	newKeys, pending, err := session.VerifyReshard(info)
	if err != nil {
		if errors.Is(err, core.ErrViolationDetected) {
			return fmt.Errorf("SERVER MISBEHAVIOUR DETECTED — refusing the new generation: %w", err)
		}
		return err
	}
	for _, p := range pending {
		if p.Executed {
			fmt.Printf("pending operation on old shard %d WAS executed before the move (result lost with the old generation; do not re-issue blindly)\n", p.OldShard)
		} else {
			fmt.Printf("pending operation on old shard %d never executed; re-issue it against the new deployment\n", p.OldShard)
		}
	}
	// Fresh contexts for the new generation.
	for j := range newKeys {
		st := &core.ClientState{ID: id}
		if err := os.WriteFile(shardStatePath(statePath, j), st.Encode(), 0o600); err != nil {
			return fmt.Errorf("persist shard %d client state: %w", j, err)
		}
	}
	for j := len(newKeys); j < len(keys); j++ {
		_ = os.Remove(shardStatePath(statePath, j))
	}
	if err := writeGen(statePath, info.Gen); err != nil {
		return err
	}
	parts := make([]string, len(newKeys))
	for j, k := range newKeys {
		parts[j] = hex.EncodeToString(k.Bytes())
	}
	fmt.Printf("adopted reshard generation %d: %d -> %d shards\n", info.Gen, info.OldShards, info.NewShards)
	fmt.Printf("pass from now on: -key %s\n", strings.Join(parts, ","))
	return nil
}

// runMembers queries one shard's sealed group view with the admin state
// key: membership epoch, members, past evictions and the current
// communication key (to distribute to joiners).
func runMembers(addr string, tcpOpts transport.TCPOptions, stateKeyHex string, shard int) error {
	if stateKeyHex == "" {
		return errors.New("members needs -statekey <hex kP> (the admin state key)")
	}
	raw, err := hex.DecodeString(strings.TrimSpace(stateKeyHex))
	if err != nil {
		return fmt.Errorf("decode -statekey: %w", err)
	}
	kp, err := aead.KeyFromBytes(raw)
	if err != nil {
		return fmt.Errorf("-statekey: %w", err)
	}
	conn, err := transport.DialTCPTimeout(addr, tcpOpts)
	if err != nil {
		return err
	}
	call, closeConn := client.AdminConnShard(conn, shard)
	defer closeConn()
	info, err := core.QueryGroupInfo(call, kp)
	if err != nil {
		return err
	}
	fmt.Printf("shard %d: epoch=%d members=%d evictions=%d\n",
		shard, info.GroupEpoch, len(info.Members), info.Evictions)
	fmt.Printf("members: %v\n", info.Members)
	if len(info.Evicted) > 0 {
		fmt.Printf("evicted: %v\n", info.Evicted)
	}
	fmt.Printf("current kC: %s\n", hex.EncodeToString(info.KC))
	return nil
}

func parseKeys(keyHex string) ([]aead.Key, error) {
	parts := strings.Split(keyHex, ",")
	keys := make([]aead.Key, 0, len(parts))
	for i, part := range parts {
		raw, err := hex.DecodeString(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("decode -key[%d]: %w", i, err)
		}
		key, err := aead.KeyFromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("-key[%d]: %w", i, err)
		}
		keys = append(keys, key)
	}
	return keys, nil
}

func printStatus(sess *client.Session) error {
	ds, err := sess.DeploymentStatus()
	if err != nil {
		return err
	}
	for _, sh := range ds.Shards {
		st := sh.Status
		if sh.Err != "" {
			fmt.Printf("shard %d: UNAVAILABLE (%s) instances=%d\n", sh.Shard, sh.Err, sh.Instances)
			continue
		}
		fmt.Printf("shard %d: provisioned=%v retired=%v epoch=%d t=%d stable=%d clients=%d instances=%d\n",
			sh.Shard, st.Provisioned, st.Retired, st.Epoch, st.Seq, st.Stable, st.NumClients, sh.Instances)
		fmt.Printf("         delta=%v chain=%d records/%dB snapshot=%dB compactions=%d lastCompactT=%d\n",
			st.DeltaActive, st.ChainLen, st.ChainBytes, st.SnapshotBytes, st.Compactions, st.LastCompactSeq)
		fmt.Printf("         membership epoch=%d active=%d evictions=%d\n",
			st.GroupEpoch, st.ActiveClients, st.Evictions)
		if sh.Replicas > 0 {
			fmt.Printf("         replication copies=%d quorum=%d live=%d/%d heals=%d\n",
				sh.Replicas, sh.Quorum, sh.ReplicasLive, sh.Replicas, sh.Heals)
		}
		if sh.Groups > 0 {
			fmt.Printf("         groupcommit groups=%d records=%d maxGroup=%d\n",
				sh.Groups, sh.Records, sh.MaxGroup)
		}
	}
	groups, records, maxGroup := ds.GroupCommitTotals()
	fmt.Printf("total: generation=%d shards=%d t=%d groupcommit groups=%d records=%d maxGroup=%d\n",
		ds.Gen, len(ds.Shards), ds.TotalSeq(), groups, records, maxGroup)
	return nil
}

// parseOp encodes one service operation from CLI arguments. Transfer is
// not handled here: against a sharded deployment it is a multi-operation
// escrow, not one op (see runSharded).
func parseOp(svcName string, args []string) ([]byte, error) {
	if svcName == "bank" {
		switch args[0] {
		case "bal":
			if len(args) != 2 {
				return nil, errors.New("usage: bal <account>")
			}
			return counter.Read(args[1]), nil
		case "inc":
			if len(args) != 3 {
				return nil, errors.New("usage: inc <account> <amount>")
			}
			amount, err := strconv.ParseInt(args[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("amount: %w", err)
			}
			return counter.Inc(args[1], amount), nil
		case "transfer":
			from, to, amount, err := parseTransferArgs(args)
			if err != nil {
				return nil, err
			}
			return counter.Transfer(from, to, amount), nil
		default:
			return nil, fmt.Errorf("unknown bank command %q", args[0])
		}
	}
	switch args[0] {
	case "get":
		if len(args) != 2 {
			return nil, errors.New("usage: get <key>")
		}
		return kvs.Get(args[1]), nil
	case "read":
		if len(args) != 2 {
			return nil, errors.New("usage: read <key>")
		}
		return kvs.Get(args[1]), nil
	case "put":
		if len(args) != 3 {
			return nil, errors.New("usage: put <key> <value>")
		}
		return kvs.Put(args[1], args[2]), nil
	case "del":
		if len(args) != 2 {
			return nil, errors.New("usage: del <key>")
		}
		return kvs.Del(args[1]), nil
	case "scan":
		prefix, limit, err := parseScanArgs(args)
		if err != nil {
			return nil, err
		}
		return kvs.Scan(prefix, limit), nil
	default:
		return nil, fmt.Errorf("unknown kvs command %q", args[0])
	}
}

func parseScanArgs(args []string) (prefix string, limit uint32, err error) {
	if len(args) != 2 && len(args) != 3 {
		return "", 0, errors.New("usage: scan <prefix> [limit]")
	}
	if len(args) == 3 {
		n, err := strconv.ParseUint(args[2], 10, 32)
		if err != nil {
			return "", 0, fmt.Errorf("limit: %w", err)
		}
		limit = uint32(n)
	}
	return args[1], limit, nil
}

func parseTransferArgs(args []string) (from, to string, amount int64, err error) {
	if len(args) != 4 {
		return "", "", 0, errors.New("usage: transfer <from> <to> <amount>")
	}
	amount, err = strconv.ParseInt(args[3], 10, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("amount: %w", err)
	}
	return args[1], args[2], amount, nil
}

// sharderFor returns the routing/merge helper for the service.
func sharderFor(svcName string) service.Sharder {
	if svcName == "bank" {
		return counter.New()
	}
	return kvs.New()
}

func printResult(svcName string, args []string, res *core.Result) error {
	switch {
	case svcName == "bank":
		cr, err := counter.DecodeResult(res.Value)
		if err != nil {
			return err
		}
		if !cr.OK {
			fmt.Printf("rejected (code %d), balance=%d\n", cr.Code, cr.Balance)
		} else {
			fmt.Printf("balance=%d\n", cr.Balance)
		}
	case args[0] == "scan":
		if err := printScanEntries(res.Value); err != nil {
			return err
		}
	default:
		kv, err := kvs.DecodeResult(res.Value)
		if err != nil {
			return err
		}
		switch {
		case (args[0] == "get" || args[0] == "read") && kv.Found:
			fmt.Printf("%s\n", kv.Value)
		case args[0] == "get" || args[0] == "read":
			fmt.Println("(not found)")
		default:
			fmt.Println("ok")
		}
	}
	fmt.Printf("seq=%d stable=%d (this op is %smajority-stable yet)\n",
		res.Seq, res.Stable, stableWord(res))
	return nil
}

func printScanEntries(result []byte) error {
	entries, err := kvs.DecodeScanResult(result)
	if err != nil {
		return err
	}
	for _, e := range entries {
		fmt.Printf("%s\t%s\n", e.Key, e.Value)
	}
	fmt.Printf("(%d entries)\n", len(entries))
	return nil
}

func runSingle(conn transport.Conn, id uint32, kc aead.Key, svcName, statePath string, cfg client.Config, args []string) error {
	var session *client.Session
	if blob, err := os.ReadFile(statePath); err == nil {
		state, err := core.DecodeClientState(blob)
		if err != nil {
			return fmt.Errorf("corrupt state file %s: %w", statePath, err)
		}
		session = client.Resume(conn, state, kc, cfg)
		// Complete any operation interrupted by a crash before issuing
		// the new one (Sec. 4.6.1).
		if state.Pending != nil {
			if res, err := session.Recover(); err == nil {
				fmt.Printf("recovered pending operation: seq=%d stable=%d\n", res.Seq, res.Stable)
			} else {
				return fmt.Errorf("recover pending operation: %w", err)
			}
		}
	} else {
		session = client.New(conn, id, kc, cfg)
	}
	defer session.Close()

	saveState := func() error {
		if err := os.WriteFile(statePath, session.State().Encode(), 0o600); err != nil {
			return fmt.Errorf("persist client state: %w", err)
		}
		return nil
	}

	if args[0] == "join" || args[0] == "leave" {
		var ack *core.ChurnAck
		var err error
		if args[0] == "join" {
			ack, err = session.Join()
		} else {
			ack, err = session.Leave()
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s ok: epoch=%d members=%d\n", args[0], ack.Epoch, ack.Members)
		return saveState()
	}

	op, err := parseOp(svcName, args)
	if err != nil {
		return err
	}
	do := session.Do
	if svcName == "kvs" && args[0] == "read" {
		// Snapshot read: served outside the serialized write loop
		// (lcm-server -snapshotreads).
		do = session.DoRead
	}
	res, err := do(op)
	if err != nil {
		// Persist even on failure: a timed-out op is pending, and the
		// state file must record it so the next invocation Recovers
		// instead of invoking from a stale context.
		_ = saveState()
		if errors.Is(err, core.ErrViolationDetected) {
			return fmt.Errorf("SERVER MISBEHAVIOUR DETECTED: %w", err)
		}
		if client.NeedsReshardRefresh(err) {
			return fmt.Errorf("deployment resharded; run `lcm-client ... refresh` with the current key to adopt the new generation: %w", err)
		}
		return err
	}
	if err := printResult(svcName, args, res); err != nil {
		return err
	}
	return saveState()
}

// shardStatePath names the per-shard state file of a sharded client.
func shardStatePath(base string, shard int) string {
	return fmt.Sprintf("%s.shard%d", base, shard)
}

// txJournalPath names the transfer-coordinator journal of a sharded
// client.
func txJournalPath(base string) string { return base + ".tx" }

func runSharded(conn transport.Conn, id uint32, keys []aead.Key, svcName, statePath string, cfg client.Config, args []string) error {
	shards := len(keys)
	states := make([]*core.ClientState, shards)
	resumable := true
	for shard := range states {
		blob, err := os.ReadFile(shardStatePath(statePath, shard))
		if err != nil {
			resumable = false
			break
		}
		state, err := core.DecodeClientState(blob)
		if err != nil {
			return fmt.Errorf("corrupt state file %s: %w", shardStatePath(statePath, shard), err)
		}
		states[shard] = state
	}

	var session *client.ShardedSession
	var err error
	if resumable {
		session, err = client.ResumeSharded(conn, states, keys, sharderFor(svcName), cfg)
		if err != nil {
			return err
		}
	} else {
		session = client.NewSharded(conn, id, keys, sharderFor(svcName), cfg)
	}
	defer session.Close()

	saveStates := func() error {
		for i, state := range session.States() {
			if err := os.WriteFile(shardStatePath(statePath, i), state.Encode(), 0o600); err != nil {
				return fmt.Errorf("persist shard %d client state: %w", i, err)
			}
		}
		return nil
	}

	if resumable {
		for shard := range states {
			if states[shard].Pending == nil {
				continue
			}
			if res, rerr := session.Recover(shard); rerr == nil {
				fmt.Printf("recovered pending operation on shard %d: seq=%d stable=%d\n",
					shard, res.Seq, res.Stable)
			} else {
				return fmt.Errorf("recover pending operation on shard %d: %w", shard, rerr)
			}
		}
		// Persist the recovered contexts right away: every protocol step
		// from here on must find the on-disk states at least as new as
		// anything already sent, or a later invocation would invoke from
		// a stale context and be (correctly) flagged as an attack.
		if err := saveStates(); err != nil {
			return err
		}
	}

	// A journaled in-flight transfer from a crashed invocation is resumed
	// before anything else: its escrow must be settled or refunded, never
	// forgotten. The journal hook persists the shard states before each
	// phase record for the same stale-context reason as above.
	if svcName == "bank" {
		if err := resumeJournaledTransfer(session, statePath, saveStates); err != nil {
			serr := saveStates()
			if serr != nil {
				return fmt.Errorf("%w (and persisting client state failed: %v)", err, serr)
			}
			return err
		}
	}

	if args[0] == "join" || args[0] == "leave" {
		var acks []*core.ChurnAck
		if args[0] == "join" {
			acks, err = session.Join()
		} else {
			acks, err = session.Leave()
		}
		if err != nil {
			return err
		}
		for shard, ack := range acks {
			fmt.Printf("shard %d: %s ok: epoch=%d members=%d\n", shard, args[0], ack.Epoch, ack.Members)
		}
		return saveStates()
	}

	var res *core.Result
	switch {
	case svcName == "kvs" && args[0] == "scan":
		prefix, limit, perr := parseScanArgs(args)
		if perr != nil {
			return perr
		}
		scan, serr := session.Scan(kvs.Scan(prefix, limit))
		if serr != nil {
			_ = saveStates() // shards that answered have advanced
			var shardErr *client.ShardError
			if errors.As(serr, &shardErr) {
				return fmt.Errorf("scan failed on shard %d (other shards keep serving): %w", shardErr.Shard, serr)
			}
			return serr
		}
		fmt.Printf("scatter-gather scan across %d shards\n", shards)
		if err := printScanEntries(scan.Merged); err != nil {
			return err
		}
		for shard, r := range scan.Results {
			fmt.Printf("  shard %d: seq=%d stable=%d\n", shard, r.Seq, r.Stable)
		}
		return saveStates()

	case svcName == "bank" && args[0] == "transfer":
		from, to, amount, perr := parseTransferArgs(args)
		if perr != nil {
			return perr
		}
		return runShardedTransfer(session, statePath, from, to, amount, saveStates)

	case svcName == "kvs" && args[0] == "read":
		// Snapshot read: served outside the write loop against the
		// shard's durable snapshot (lcm-server
		// -snapshotreads), with the full per-client context check.
		if len(args) != 2 {
			return errors.New("usage: read <key>")
		}
		res, err = session.DoRead(kvs.Get(args[1]))
		if err != nil {
			_ = saveStates()
			if errors.Is(err, core.ErrViolationDetected) {
				return fmt.Errorf("SERVER MISBEHAVIOUR DETECTED: %w", err)
			}
			return err
		}

	default:
		op, perr := parseOp(svcName, args)
		if perr != nil {
			return perr
		}
		shard, serr := session.ShardFor(op)
		if serr != nil {
			return serr
		}
		res, err = session.DoOn(shard, op)
		if err != nil {
			// Persist even on failure: a timed-out op is pending in the
			// shard's context, and only a state file that records it lets
			// the next invocation Recover instead of invoking from a
			// stale context (which the enclave would flag as an attack).
			_ = saveStates()
			if errors.Is(err, core.ErrViolationDetected) {
				return fmt.Errorf("SERVER MISBEHAVIOUR DETECTED: %w", err)
			}
			if client.NeedsReshardRefresh(err) {
				return fmt.Errorf("deployment resharded; run `lcm-client ... refresh` with the current keys to adopt the new generation: %w", err)
			}
			return err
		}
		fmt.Printf("routed to shard %d/%d\n", shard, shards)
	}
	if err := printResult(svcName, args, res); err != nil {
		return err
	}
	return saveStates()
}

// runShardedTransfer drives a (possibly cross-shard) transfer with the
// coordinator journaled to disk after every phase, so a crash at any
// point is resumable by the next invocation.
func runShardedTransfer(session *client.ShardedSession, statePath, from, to string, amount int64, saveStates func() error) error {
	tx, err := session.NewTransfer(from, to, amount)
	if err != nil {
		return err
	}
	journal := journalTo(txJournalPath(statePath), saveStates)
	if err := journal(tx); err != nil {
		return err
	}
	out, err := session.RunTransfer(tx, journal)
	if serr := saveStates(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("transfer %s stopped in phase %d (rerun to resume): %w", tx.ID, tx.Phase, err)
	}
	_ = os.Remove(txJournalPath(statePath)) // completed: journal no longer needed
	src, dst := session.TransferShards(tx)
	if out.OK {
		fmt.Printf("transferred %d from %s (shard %d) to %s (shard %d)\n", amount, from, src, to, dst)
	} else {
		fmt.Printf("transfer rejected (code %d)\n", out.Code)
	}
	return nil
}

// resumeJournaledTransfer finishes a transfer a crashed invocation left
// in flight.
func resumeJournaledTransfer(session *client.ShardedSession, statePath string, saveStates func() error) error {
	blob, err := os.ReadFile(txJournalPath(statePath))
	if os.IsNotExist(err) {
		return nil // no journal: nothing in flight
	}
	if err != nil {
		// A journal that exists but cannot be read must stop everything:
		// proceeding could strand (or re-drive) an in-flight escrow.
		return fmt.Errorf("read transfer journal: %w", err)
	}
	tx, err := client.DecodeTransfer(blob)
	if err != nil {
		return fmt.Errorf("corrupt transfer journal: %w", err)
	}
	if tx.Phase == client.TxSettled || tx.Phase == client.TxAborted {
		return os.Remove(txJournalPath(statePath))
	}
	fmt.Printf("resuming journaled transfer %s (phase %d)\n", tx.ID, tx.Phase)
	out, err := session.RunTransfer(tx, journalTo(txJournalPath(statePath), saveStates))
	if serr := saveStates(); err == nil {
		err = serr
	}
	if err != nil {
		return fmt.Errorf("resume transfer %s: %w", tx.ID, err)
	}
	fmt.Printf("journaled transfer %s resolved: ok=%v\n", tx.ID, out.OK)
	return os.Remove(txJournalPath(statePath))
}

// journalTo persists coordinator state to path after each phase change —
// the per-shard protocol states first (so no later invocation can ever
// invoke from a context older than what was already sent; a stale
// context would be flagged by the enclave as a rollback/forking attack),
// then the coordinator phase record.
func journalTo(path string, saveStates func() error) func(*client.Transfer) error {
	return func(t *client.Transfer) error {
		if err := saveStates(); err != nil {
			return err
		}
		return os.WriteFile(path, t.Encode(), 0o600)
	}
}

func stableWord(res *core.Result) string {
	if res.Seq <= res.Stable {
		return ""
	}
	return "not "
}
