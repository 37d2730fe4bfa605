package tee

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lcm/internal/latency"
	"lcm/internal/stablestore"
)

// echoProgram is a minimal program: it remembers an in-memory counter
// (volatile) and can seal/unseal a value through the host.
type echoProgram struct {
	identity  string
	counter   int
	initErr   error
	lastQuote *Quote
}

func (p *echoProgram) Identity() string { return p.identity }

func (p *echoProgram) Init(env Env) error { return p.initErr }

func (p *echoProgram) Call(env Env, payload []byte) ([]byte, error) {
	switch string(payload) {
	case "inc":
		// Yield between the read and the write: calls that overlap lose
		// updates (TestCallsAreSerialized).
		n := p.counter
		runtime.Gosched()
		p.counter = n + 1
		return []byte(fmt.Sprintf("%d", p.counter)), nil
	case "halt":
		return nil, Halt("test violation", nil)
	case "fail":
		return nil, errors.New("transient failure")
	case "grow":
		env.ChargeMemory(1 << 20)
		return nil, nil
	case "epoch":
		return []byte(fmt.Sprintf("%d", env.Epoch())), nil
	case "seal-key":
		k := env.SealingKey()
		return k.Bytes(), nil
	default:
		if nonce, ok := bytes.CutPrefix(payload, []byte("quote:")); ok {
			q := env.Quote(nonce, []byte("enclave-ecdh-pubkey"))
			p.lastQuote = &q
			return nil, nil
		}
		return payload, nil
	}
}

func hostOverMem() HostServices { return stablestore.NewMemStore() }

func newTestEnclave(t *testing.T, opts ...PlatformOption) (*Platform, *Enclave) {
	t.Helper()
	p, err := NewPlatform("plat-1", opts...)
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	e := p.NewEnclave(func() Program { return &echoProgram{identity: "echo"} }, hostOverMem())
	return p, e
}

func TestEnclaveLifecycle(t *testing.T) {
	_, e := newTestEnclave(t)
	if e.Running() {
		t.Fatal("enclave running before Start")
	}
	if _, err := e.Call([]byte("x")); !errors.Is(err, ErrEnclaveStopped) {
		t.Fatalf("Call before Start = %v, want ErrEnclaveStopped", err)
	}
	if err := e.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := e.Start(); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("double Start = %v, want ErrAlreadyRunning", err)
	}
	resp, err := e.Call([]byte("hello"))
	if err != nil || !bytes.Equal(resp, []byte("hello")) {
		t.Fatalf("Call = %q, %v", resp, err)
	}
	e.Stop()
	if e.Running() {
		t.Fatal("enclave running after Stop")
	}
}

// Restarting an enclave must lose all volatile memory (Sec. 2.2: protected
// memory is only accessible within an epoch).
func TestRestartLosesVolatileMemory(t *testing.T) {
	_, e := newTestEnclave(t)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Call([]byte("inc")); err != nil {
			t.Fatal(err)
		}
	}
	resp, _ := e.Call([]byte("inc"))
	if string(resp) != "4" {
		t.Fatalf("counter = %s, want 4", resp)
	}
	if err := e.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	resp, err := e.Call([]byte("inc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "1" {
		t.Fatalf("counter after restart = %s, want 1 (volatile memory must be lost)", resp)
	}
}

func TestEpochIncrementsAcrossRestarts(t *testing.T) {
	_, e := newTestEnclave(t)
	for want := 1; want <= 3; want++ {
		if err := e.Restart(); err != nil {
			t.Fatal(err)
		}
		resp, err := e.Call([]byte("epoch"))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != fmt.Sprintf("%d", want) {
			t.Fatalf("epoch = %s, want %d", resp, want)
		}
	}
}

// The sealing key must be stable across epochs of the same program on the
// same platform (so sealed state can be recovered, Sec. 4.4) and distinct
// across programs and platforms.
func TestSealingKeyProperties(t *testing.T) {
	p1, err := NewPlatform("plat-1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlatform("plat-2")
	if err != nil {
		t.Fatal(err)
	}

	keyOf := func(p *Platform, identity string) []byte {
		e := p.NewEnclave(func() Program { return &echoProgram{identity: identity} }, hostOverMem())
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		k, err := e.Call([]byte("seal-key"))
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	kA1 := keyOf(p1, "progA")
	kA2 := keyOf(p1, "progA") // second enclave, same program, same platform
	if !bytes.Equal(kA1, kA2) {
		t.Fatal("same program on same platform derived different sealing keys")
	}
	if bytes.Equal(kA1, keyOf(p1, "progB")) {
		t.Fatal("different programs share a sealing key")
	}
	if bytes.Equal(kA1, keyOf(p2, "progA")) {
		t.Fatal("different platforms share a sealing key")
	}
}

// An ecall costs the program's work and nothing else: the epoch's sealing
// key is derived once, at Start, not per Call.
func TestCallDoesNotAllocate(t *testing.T) {
	_, e := newTestEnclave(t)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	payload := []byte("echo")
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.Call(payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Call of a no-op program allocated %.1f times, want 0", allocs)
	}
}

func TestHaltOnViolationIsPermanent(t *testing.T) {
	_, e := newTestEnclave(t)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call([]byte("halt")); !errors.Is(err, ErrEnclaveHalted) {
		t.Fatalf("violating call = %v, want ErrEnclaveHalted", err)
	}
	if _, err := e.Call([]byte("x")); !errors.Is(err, ErrEnclaveHalted) {
		t.Fatalf("call after halt = %v, want ErrEnclaveHalted", err)
	}
	if err := e.Start(); !errors.Is(err, ErrEnclaveHalted) {
		t.Fatalf("Start after halt = %v, want ErrEnclaveHalted", err)
	}
	if err := e.Restart(); !errors.Is(err, ErrEnclaveHalted) {
		t.Fatalf("Restart after halt = %v, want ErrEnclaveHalted", err)
	}
	var halt *HaltError
	if !errors.As(e.HaltedErr(), &halt) {
		t.Fatalf("HaltedErr = %v, want *HaltError", e.HaltedErr())
	}
}

func TestTransientErrorsDoNotHalt(t *testing.T) {
	_, e := newTestEnclave(t)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call([]byte("fail")); err == nil {
		t.Fatal("expected transient error")
	}
	if _, err := e.Call([]byte("ok")); err != nil {
		t.Fatalf("call after transient error = %v, want success", err)
	}
}

// A malicious server can run several instances of the same trusted
// execution context concurrently — the capability behind forking attacks.
func TestMultipleConcurrentInstances(t *testing.T) {
	p, err := NewPlatform("plat-1")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Enclave {
		e := p.NewEnclave(func() Program { return &echoProgram{identity: "echo"} }, hostOverMem())
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	e1, e2 := mk(), mk()
	e1.Call([]byte("inc"))
	e1.Call([]byte("inc"))
	r1, _ := e1.Call([]byte("inc"))
	r2, _ := e2.Call([]byte("inc"))
	if string(r1) != "3" || string(r2) != "1" {
		t.Fatalf("instances share state: %s / %s", r1, r2)
	}
}

// Concurrent callers take turns: each "inc" yields mid-update, so a call
// that ran beside another would lose an update.
func TestCallsAreSerialized(t *testing.T) {
	_, e := newTestEnclave(t)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const calls = 32
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Call([]byte("inc")); err != nil {
				t.Errorf("Call: %v", err)
			}
		}()
	}
	wg.Wait()
	resp, _ := e.Call([]byte("inc"))
	if string(resp) != "33" {
		t.Fatalf("counter = %s, want 33 (lost updates under concurrency)", resp)
	}
}

func TestEPCAccountingAndReset(t *testing.T) {
	p, err := NewPlatform("plat-1", WithEPC(EPCConfig{LimitBytes: 1 << 20, MaxFactor: 2.4}))
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewEnclave(func() Program { return &echoProgram{identity: "echo"} }, hostOverMem())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if e.ResidentBytes() != 0 {
		t.Fatalf("resident = %d at epoch start", e.ResidentBytes())
	}
	e.Call([]byte("grow"))
	if e.ResidentBytes() != 1<<20 {
		t.Fatalf("resident = %d, want 1MiB", e.ResidentBytes())
	}
	if err := e.Restart(); err != nil {
		t.Fatal(err)
	}
	if e.ResidentBytes() != 0 {
		t.Fatal("resident accounting survived restart")
	}
}

func TestEPCPagingPenaltyKicksInPastLimit(t *testing.T) {
	model := &latency.Model{Scale: 1, PageIn: 2 * time.Millisecond}
	p, err := NewPlatform("plat-1",
		WithEPC(EPCConfig{LimitBytes: 1 << 20, MaxFactor: 2.4}),
		WithLatencyModel(model))
	if err != nil {
		t.Fatal(err)
	}
	e := p.NewEnclave(func() Program { return &echoProgram{identity: "echo"} }, hostOverMem())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	// What one call was charged: the model's charge, not the wall clock.
	chargedCall := func() time.Duration {
		before := model.Charged()
		if _, err := e.Call([]byte("noop")); err != nil {
			t.Fatal(err)
		}
		return model.Charged() - before
	}

	under := chargedCall()
	// Grow to 3 MiB resident: 2 MiB over a 1 MiB limit → factor 2 capped at 2.4.
	for i := 0; i < 3; i++ {
		e.Call([]byte("grow"))
	}
	over := chargedCall()
	if over < under+2*time.Millisecond {
		t.Fatalf("no paging penalty: under=%v over=%v", under, over)
	}
}

// quoteFrom starts an enclave running echoProgram on p and obtains a quote
// for nonce through the program (the only path, mirroring SGX EREPORT).
func quoteFrom(t *testing.T, p *Platform, identity string, nonce []byte) Quote {
	t.Helper()
	prog := &echoProgram{identity: identity}
	e := p.NewEnclave(func() Program { return prog }, hostOverMem())
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call(append([]byte("quote:"), nonce...)); err != nil {
		t.Fatal(err)
	}
	if prog.lastQuote == nil {
		t.Fatal("program did not record a quote")
	}
	return *prog.lastQuote
}

func TestQuoteVerification(t *testing.T) {
	svc := NewAttestationService()
	p, err := NewPlatform("plat-1")
	if err != nil {
		t.Fatal(err)
	}
	svc.Register(p)

	nonce := []byte("challenge-nonce")
	q := quoteFrom(t, p, "lcm", nonce)

	if err := svc.Verify(q, Measure("lcm"), nonce); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	// Wrong expected measurement: a malicious server started P' != LCM.
	if err := svc.Verify(q, Measure("evil"), nonce); !errors.Is(err, ErrWrongMeasurement) {
		t.Fatalf("wrong measurement = %v", err)
	}
	// Stale nonce: replayed quote.
	if err := svc.Verify(q, Measure("lcm"), []byte("other-nonce")); !errors.Is(err, ErrNonceMismatch) {
		t.Fatalf("stale nonce = %v", err)
	}
	// Unregistered platform (no genuine TEE).
	rogue, _ := NewPlatform("rogue")
	rq := quoteFrom(t, rogue, "lcm", nonce)
	if err := svc.Verify(rq, Measure("lcm"), nonce); !errors.Is(err, ErrUnknownPlatform) {
		t.Fatalf("unregistered platform = %v", err)
	}
	// Tampered user data must break the MAC.
	q2 := quoteFrom(t, p, "lcm", nonce)
	q2.UserData = []byte("attacker-key")
	if err := svc.Verify(q2, Measure("lcm"), nonce); !errors.Is(err, ErrQuoteMAC) {
		t.Fatalf("tampered user data = %v", err)
	}
}

func TestQuoteFieldBoundaryUnambiguous(t *testing.T) {
	svc := NewAttestationService()
	p, _ := NewPlatform("plat-1")
	svc.Register(p)
	q := quoteFrom(t, p, "lcm", []byte("ab"))
	// Shift bytes between nonce and user data; the MAC must not verify.
	q.Nonce = append(q.Nonce, q.UserData[0])
	q.UserData = q.UserData[1:]
	if err := svc.Verify(q, Measure("lcm"), q.Nonce); err == nil {
		t.Fatal("quote MAC is ambiguous across field boundaries")
	}
}

func TestFactoryMeasurementMismatchRejected(t *testing.T) {
	p, _ := NewPlatform("plat-1")
	// NewEnclave itself instantiates the program once to measure it, so
	// the sequence is: measure, first Start, second Start.
	ids := []string{"first", "first", "second"}
	i := 0
	e := p.NewEnclave(func() Program {
		prog := &echoProgram{identity: ids[i]}
		i++
		return prog
	}, hostOverMem())
	if err := e.Start(); err != nil {
		t.Fatalf("first Start: %v", err)
	}
	e.Stop()
	if err := e.Start(); err == nil {
		t.Fatal("Start accepted a program with a different measurement")
	}
}

func TestInitErrorDoesNotStartEpochProcessing(t *testing.T) {
	p, _ := NewPlatform("plat-1")
	e := p.NewEnclave(func() Program {
		return &echoProgram{identity: "echo", initErr: errors.New("boom")}
	}, hostOverMem())
	if err := e.Start(); err == nil {
		t.Fatal("Start succeeded despite Init error")
	}
	if e.Running() {
		t.Fatal("enclave running after failed Init")
	}
}

func TestInitHaltErrorHaltsPermanently(t *testing.T) {
	p, _ := NewPlatform("plat-1")
	e := p.NewEnclave(func() Program {
		return &echoProgram{identity: "echo", initErr: Halt("bad sealed state", nil)}
	}, hostOverMem())
	// The error names the halt's reason, which is all an operator sees.
	if err := e.Start(); !errors.Is(err, ErrEnclaveHalted) || !strings.Contains(err.Error(), "bad sealed state") {
		t.Fatalf("Start with violating Init = %v, want ErrEnclaveHalted with its reason", err)
	}
	if err := e.Start(); !errors.Is(err, ErrEnclaveHalted) {
		t.Fatal("enclave not permanently halted after Init violation")
	}
}

func TestMeasureIsStableAndDistinct(t *testing.T) {
	if Measure("a") != Measure("a") {
		t.Fatal("Measure not deterministic")
	}
	if Measure("a") == Measure("b") {
		t.Fatal("distinct identities share a measurement")
	}
}
