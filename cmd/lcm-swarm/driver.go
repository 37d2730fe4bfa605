package main

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"lcm/internal/benchrun"
	"lcm/internal/consistency"
	"lcm/internal/counter"
	"lcm/internal/kvs"
	"lcm/internal/securechannel"
	"lcm/internal/service"
)

// pickPort reserves a free TCP port and releases it immediately — the
// server must come back on the same address after each restart, so the
// usual port-0 trick only works for the very first launch.
func pickPort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// serverProc is one launch of the lcm-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	waitCh chan error // closed after cmd.Wait, carrying its result
	ready  chan struct{}
	keyHex string // kC line from a bootstrapping launch ("" on resume)

	// Clone-arm signals, parsed from the server's stdout notices
	// (buffered so the scanner never blocks when nobody listens).
	cloneInjected chan int // instance index minted for the clone
	cloneDetected chan int // instance index of the twin that halted
}

// startServer launches lcm-server and waits until it prints its kC line
// (bootstrap) or its resume notice — either way it is accepting.
func startServer(o *options, bin, addr string, logW io.Writer) (*serverProc, error) {
	clients := o.workers * o.conns
	if o.clone {
		// Reserve the id range the driver's in-process clone-partition
		// clients join with (they must be group members like any other).
		clients += cloneConns
	}
	args := []string{
		"-addr", addr,
		"-dir", filepath.Join(o.dir, "data"),
		"-service", o.service,
		"-shards", fmt.Sprint(o.shards),
		"-batch", fmt.Sprint(o.batch),
		"-clients", fmt.Sprint(clients),
		"-sync",
		"-scale", "0",
		"-keepalive", "15s",
	}
	if o.beacon > 0 {
		args = append(args, "-beaconinterval", o.beacon.String())
	}
	if o.clone {
		args = append(args, "-cloneshard", "0", "-cloneafter", (o.duration / 2).String())
	}
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logW
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{
		cmd: cmd, waitCh: make(chan error, 1), ready: make(chan struct{}),
		cloneInjected: make(chan int, 1), cloneDetected: make(chan int, 1),
	}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		readySignalled := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logW, line)
			if strings.HasPrefix(strings.TrimSpace(line), "kC:") {
				p.keyHex = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "kC:"))
				if !readySignalled {
					readySignalled = true
					close(p.ready)
				}
			}
			if strings.HasPrefix(line, "clone injected:") {
				var shard, inst int
				if _, err := fmt.Sscanf(line, "clone injected: shard %d duplicated as instance %d", &shard, &inst); err == nil {
					select {
					case p.cloneInjected <- inst:
					default:
					}
				}
			}
			if strings.HasPrefix(line, "clone detected:") {
				var inst int
				if _, err := fmt.Sscanf(line, "clone detected: instance %d halted:", &inst); err == nil {
					select {
					case p.cloneDetected <- inst:
					default:
					}
				}
			}
		}
	}()
	// os/exec: Wait closes the pipe, so it runs once the reads are done.
	go func() { <-scanned; p.waitCh <- cmd.Wait() }()
	select {
	case <-p.ready:
		return p, nil
	case err := <-p.waitCh:
		return nil, fmt.Errorf("lcm-server exited during startup: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		return nil, errors.New("lcm-server startup timed out")
	}
}

// stop signals the server and waits for it to exit, returning its exit
// error (nil for a clean exit 0).
func (p *serverProc) stop(sig syscall.Signal, timeout time.Duration) error {
	p.cmd.Process.Signal(sig)
	select {
	case err := <-p.waitCh:
		return err
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		return fmt.Errorf("lcm-server did not exit within %v of %v", timeout, sig)
	}
}

// workerProc is one spawned worker process.
type workerProc struct {
	index  int
	cmd    *exec.Cmd
	statCh chan *benchrun.WorkerStats
	waitCh chan error
}

func startWorker(o *options, self, addr, keyHex, sealPub string, index int, logW io.Writer) (*workerProc, error) {
	eventFile := filepath.Join(o.dir, fmt.Sprintf("events-%d.bin", index))
	cmd := exec.Command(self,
		"-mode", "worker",
		"-index", fmt.Sprint(index),
		"-idbase", fmt.Sprint(index*o.conns+1),
		"-conns", fmt.Sprint(o.conns),
		"-duration", o.duration.String(),
		"-service", o.service,
		"-addr", addr,
		"-key", keyHex,
		"-sealpub", sealPub,
		"-eventfile", eventFile,
		"-optimeout", o.opTimeout.String(),
		fmt.Sprintf("-chaos=%v", o.chaos),
		fmt.Sprintf("-v=%v", o.verbose),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = logW
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	w := &workerProc{index: index, cmd: cmd, statCh: make(chan *benchrun.WorkerStats, 1), waitCh: make(chan error, 1)}
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, statsPrefix); ok {
				st := &benchrun.WorkerStats{}
				if err := json.Unmarshal([]byte(rest), st); err == nil {
					w.statCh <- st
				}
				continue
			}
			fmt.Fprintf(logW, "[worker %d] %s\n", index, line)
		}
	}()
	// The stats line is in statCh before waitCh reports the exit.
	go func() { <-scanned; w.waitCh <- cmd.Wait() }()
	return w, nil
}

func runDriver(o *options) error {
	if o.clone {
		// The clone arm needs a deterministic split of the world: the
		// worker partition pinned to the primary (no redials → no
		// stray landings on the clone) and the driver's clone partition
		// pinned to the clone. Chaos kills and server restarts both
		// force reconnections, so they are incompatible with the arm.
		if o.service != "kvs" {
			return errors.New("-clone supports -service kvs only")
		}
		o.chaos = false
		o.restarts = false
		if o.beacon == 0 {
			// Generous default: the injection-to-collision window is
			// about one interval, and the clone partition must connect
			// and complete its writes inside it.
			o.beacon = time.Second
		}
		if o.duration < 4*o.beacon {
			return fmt.Errorf("-clone needs -duration >= 4x the beacon interval (%v)", o.beacon)
		}
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return err
	}
	// A swarm run starts from empty storage; stale state would make the
	// server resume a previous run's world.
	if err := os.RemoveAll(filepath.Join(o.dir, "data")); err != nil {
		return err
	}

	bin := o.serverbin
	if bin == "" {
		self, err := os.Executable()
		if err == nil {
			cand := filepath.Join(filepath.Dir(self), "lcm-server")
			if _, statErr := os.Stat(cand); statErr == nil {
				bin = cand
			}
		}
		if bin == "" {
			var err error
			bin, err = exec.LookPath("lcm-server")
			if err != nil {
				return errors.New("lcm-server binary not found: pass -serverbin")
			}
		}
	}

	addr := o.addr
	if strings.HasSuffix(addr, ":0") {
		var err error
		addr, err = pickPort()
		if err != nil {
			return err
		}
	}

	logF, err := os.Create(filepath.Join(o.dir, "swarm.log"))
	if err != nil {
		return err
	}
	defer logF.Close()
	logW := io.MultiWriter(logF)
	say := func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
		fmt.Fprintf(logF, format+"\n", args...)
	}

	responder, err := securechannel.NewResponder()
	if err != nil {
		return err
	}
	sealPub := hex.EncodeToString(responder.PublicKey())

	say("lcm-swarm: server %s on %s (service=%s shards=%d, data under %s)", bin, addr, o.service, o.shards, o.dir)
	start := time.Now()
	srv, err := startServer(o, bin, addr, logW)
	if err != nil {
		return err
	}
	keyHex := srv.keyHex
	if keyHex == "" || keyHex == "resumed" {
		srv.stop(syscall.SIGKILL, 5*time.Second)
		return errors.New("server bootstrap did not print a communication key (stale -dir?)")
	}

	self, err := os.Executable()
	if err != nil {
		return err
	}
	say("lcm-swarm: launching %d workers x %d connections = %d concurrent sessions (chaos=%v, restarts=%v)",
		o.workers, o.conns, o.workers*o.conns, o.chaos, o.restarts)
	workers := make([]*workerProc, o.workers)
	for i := range workers {
		w, err := startWorker(o, self, addr, keyHex, sealPub, i, logW)
		if err != nil {
			srv.stop(syscall.SIGKILL, 5*time.Second)
			return fmt.Errorf("start worker %d: %w", i, err)
		}
		workers[i] = w
	}

	// The clone arm runs concurrently with the workers: it waits for the
	// server's mid-run injection, drives the clone-side client partition,
	// and watches for the beacon-collision detection notice.
	var cloneCh chan *cloneOutcome
	if o.clone {
		cloneCh = make(chan *cloneOutcome, 1)
		go func() { cloneCh <- runCloneArm(o, addr, keyHex, srv, say) }()
	}

	var restarts []string
	var driverErrs []string
	if o.restarts {
		// Clean restart at D/3: SIGTERM (listener closes, committers
		// drain, exit 0), relaunch over the same storage (resume path).
		time.Sleep(o.duration / 3)
		say("lcm-swarm: clean server restart (SIGTERM)...")
		if err := srv.stop(syscall.SIGTERM, 30*time.Second); err != nil {
			driverErrs = append(driverErrs, fmt.Sprintf("clean stop: %v", err))
		}
		srv, err = startServer(o, bin, addr, logW)
		if err != nil {
			return fmt.Errorf("relaunch after clean stop: %w", err)
		}
		restarts = append(restarts, "clean (SIGTERM, drained, exit 0)")

		// Crash restart at 2D/3: SIGKILL mid-traffic. -sync means every
		// acknowledged write was already durable.
		time.Sleep(o.duration / 3)
		say("lcm-swarm: crash server restart (SIGKILL)...")
		srv.stop(syscall.SIGKILL, 10*time.Second)
		srv, err = startServer(o, bin, addr, logW)
		if err != nil {
			return fmt.Errorf("relaunch after crash: %w", err)
		}
		restarts = append(restarts, "crash (SIGKILL)")
	}

	// Workers finish their workload window, recover pendings and read
	// back everything they acknowledged before exiting.
	stats := make([]*benchrun.WorkerStats, 0, len(workers))
	workerFailures := 0
	for _, w := range workers {
		select {
		case err := <-w.waitCh:
			if err != nil {
				workerFailures++
				driverErrs = append(driverErrs, fmt.Sprintf("worker %d: %v", w.index, err))
			}
		case <-time.After(o.duration + 3*time.Minute):
			w.cmd.Process.Kill()
			workerFailures++
			driverErrs = append(driverErrs, fmt.Sprintf("worker %d: timed out", w.index))
		}
		select {
		case st := <-w.statCh:
			stats = append(stats, st)
		default:
			driverErrs = append(driverErrs, fmt.Sprintf("worker %d: no stats line", w.index))
		}
	}
	elapsed := time.Since(start)

	// Collect the clone arm before stopping the server: its survivor
	// read-back needs the process alive.
	var cloneRes *cloneOutcome
	if cloneCh != nil {
		select {
		case cloneRes = <-cloneCh:
		case <-time.After(2 * time.Minute):
			driverErrs = append(driverErrs, "clone arm: no result within 2m")
		}
	}

	// Final clean stop — also exercises the drain path a second time.
	if err := srv.stop(syscall.SIGTERM, 30*time.Second); err != nil {
		driverErrs = append(driverErrs, fmt.Sprintf("final stop: %v", err))
	}

	// Decode the sealed event files and run the checker.
	log := consistency.NewLog()
	var eventErr error
	for i := range workers {
		if err := readEventFile(filepath.Join(o.dir, fmt.Sprintf("events-%d.bin", i)), responder, log); err != nil && eventErr == nil {
			eventErr = fmt.Errorf("events-%d.bin: %w", i, err)
		}
	}
	var factory service.Factory
	if o.service == "bank" {
		factory = counter.Factory()
	} else {
		factory = kvs.Factory()
	}
	verdict := "consistent"
	if eventErr != nil {
		verdict = "event decode failed: " + eventErr.Error()
	} else if err := log.CheckSharded(factory); err != nil {
		verdict = err.Error()
	}

	chaosDesc := "off"
	if o.chaos {
		chaosDesc = "drop+duplicate+reorder (per-conn TamperConn) + random connection kills"
	}
	// The clone gate: detection fired, the clone partition's own history
	// is consistent, and the offline checker extracts slot-collision
	// evidence from the merged (worker + clone) histories.
	var cloneErr error
	cloneDesc := ""
	if o.clone {
		cloneDesc, cloneErr = judgeClone(factory, log, cloneRes)
	}
	// When the primary loses the beacon counter race (rare — its ticker
	// is already mid-flight at clone birth), worker-side loss and exit
	// failures are the attack's doing, not a harness failure; the
	// surviving clone's partition carries the loss gate instead.
	primaryHalted := cloneRes != nil && cloneRes.detected && cloneRes.haltedInst == 0

	report := &benchrun.SwarmReport{
		Service:  o.service,
		Workers:  o.workers,
		Conns:    o.workers * o.conns,
		Duration: elapsed,
		Chaos:    chaosDesc,
		Restarts: restarts,
		Verdict:  verdict,
		Clone:    cloneDesc,
	}
	report.MergeWorkers(stats)
	if err := report.Write(o.out); err != nil {
		return err
	}

	say("lcm-swarm: %d ops (%d errors) over %d connections in %v — %.0f ops/s",
		report.Ops, report.Errors, report.Conns, elapsed.Round(time.Second), report.Throughput)
	say("lcm-swarm: acked writes %d, loss %d; conn kills %d, recoveries %d; %d history events checked",
		report.AckedWrites, report.AckedWriteLoss, report.ConnKills, report.Recoveries, report.Events)
	if o.clone {
		say("lcm-swarm: clone arm: %s", cloneDesc)
	}
	say("lcm-swarm: verdict: %s", verdict)
	say("lcm-swarm: report: %s", o.out)

	switch {
	case verdict != "consistent":
		return fmt.Errorf("consistency verdict: %s", verdict)
	case cloneErr != nil:
		return fmt.Errorf("clone gate: %w", cloneErr)
	case primaryHalted && cloneRes.lost > 0:
		return fmt.Errorf("clone survived its twin but lost %d of its partition's acknowledged writes", cloneRes.lost)
	case !primaryHalted && report.AckedWriteLoss > 0:
		return fmt.Errorf("%d acknowledged writes lost", report.AckedWriteLoss)
	case !primaryHalted && (workerFailures > 0 || len(driverErrs) > 0):
		return fmt.Errorf("run degraded: %s", strings.Join(driverErrs, "; "))
	}
	return nil
}

// readEventFile opens one worker's sealed event stream: a u32-framed
// hello followed by u32-framed securechannel session records, one
// consistency event each.
func readEventFile(path string, responder *securechannel.Responder, log *consistency.Log) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	readFrame := func() ([]byte, error) {
		var hdr [4]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > 1<<20 {
			return nil, fmt.Errorf("event frame of %d bytes", n)
		}
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	hello, err := readFrame()
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	sess, err := responder.NewSession(hello, securechannel.SessionConfig{})
	if err != nil {
		return err
	}
	for n := 0; ; n++ {
		frame, err := readFrame()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		plain, err := sess.Open(frame)
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		e, err := consistency.DecodeEvent(plain)
		if err != nil {
			return fmt.Errorf("record %d: %w", n, err)
		}
		log.Record(e)
	}
}
