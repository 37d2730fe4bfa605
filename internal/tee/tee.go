// Package tee simulates a trusted execution environment with the exact
// interface the paper's system model assumes (Sec. 2.2):
//
//   - A Platform hosts trusted execution contexts (Enclaves). An enclave
//     runs one immutable Program; the server may start, terminate and
//     restart it at its discretion, and may run multiple instances
//     concurrently — the powers a forking attacker needs.
//   - Enclave memory is volatile: every epoch starts from a fresh Program
//     instance; whatever the previous epoch held in memory is gone.
//   - get-key: a program-specific sealing key derived deterministically
//     from the platform root secret and the program measurement, so sealed
//     state can be recovered across epochs but only by the same program on
//     the same platform.
//   - Remote attestation: quotes bind a measurement and caller-chosen user
//     data to a genuine platform, verified through an attestation service
//     standing in for the EPID infrastructure.
//   - The enclave's only access to the outside world is the explicit host
//     interface (load/store of opaque blobs), which the — potentially
//     malicious — host implements.
//
// The simulator also models the enclave page cache (EPC): programs report
// their resident heap size, and once it exceeds the platform's EPC limit
// every call is charged a paging penalty, reproducing the latency knee of
// Sec. 6.2.
package tee

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"lcm/internal/aead"
	"lcm/internal/keyderiv"
	"lcm/internal/latency"
	"lcm/internal/tmc"
)

// Measurement identifies the code loaded into an enclave, standing in for
// the SGX enclave measurement (MRENCLAVE).
type Measurement [32]byte

// Measure computes the measurement for a program identity string. Real SGX
// hashes the loaded pages; the simulator hashes the program's declared
// identity, which preserves the property that matters: two enclaves have
// equal measurements iff they run the same program.
func Measure(identity string) Measurement {
	return sha256.Sum256([]byte("lcm/tee/measurement/v1:" + identity))
}

// String renders the measurement as abbreviated hex.
func (m Measurement) String() string { return hex.EncodeToString(m[:8]) }

// HostServices is the untrusted world as seen from inside an enclave. A
// correct server forwards to real stable storage; a malicious one may
// return stale blobs (rollback attack) or lie in any other way. Everything
// returned from it must be treated as untrusted input.
type HostServices interface {
	// Load returns the blob most recently stored under slot — if the host
	// is honest. It must return stablestore.ErrNotFound when nothing was
	// ever stored. The returned buffer is the program's to overwrite.
	Load(slot string) ([]byte, error)
	// Store persists a blob under slot — if the host is honest.
	Store(slot string, blob []byte) error
	// Append adds a record to an append-only log slot — if the host is
	// honest. The enclave's incremental persistence chains each record to
	// its predecessor, so a dishonest append (drop, reorder, splice) is
	// either detected at recovery or reduces to a rollback, which clients
	// detect.
	Append(slot string, record []byte) error
	// AppendGroup adds several records to an append-only log slot in one
	// durability unit — if the host is honest. It carries the same trust
	// caveats as Append; group atomicity is a performance property of the
	// honest host, never a security assumption.
	AppendGroup(slot string, records [][]byte) error
	// LoadLog returns the records of a log slot in append order — if the
	// host is honest. A never-written slot yields an empty log. The
	// records are the program's, like Load's blob.
	LoadLog(slot string) ([][]byte, error)
	// TruncateLog discards a log slot (a segment a newer blob covers).
	TruncateLog(slot string) error
}

// Env is the trusted environment handed to a Program. It exposes the TEE
// primitives of Sec. 2.2 plus EPC accounting.
type Env interface {
	// SealingKey returns get-key(T, P): stable across epochs, unique per
	// (platform, program measurement).
	SealingKey() aead.Key
	// Rand fills b from the TEE's secure random number generator.
	Rand(b []byte) error
	// Host returns the untrusted host interface.
	Host() HostServices
	// Epoch returns the current epoch number (1 for the first start).
	Epoch() uint64
	// ChargeMemory adjusts the enclave's resident-byte accounting by
	// delta. Programs call it as their heap grows and shrinks.
	ChargeMemory(delta int64)
	// ResidentBytes returns the current resident-byte estimate.
	ResidentBytes() int64
	// Quote produces a remote-attestation quote binding the enclave's
	// measurement, the verifier's nonce and program-chosen user data
	// (e.g. a key-exchange public key). Like SGX's EREPORT, it can only
	// be issued from inside the enclave, so the host cannot forge quotes
	// claiming the enclave holds attacker-chosen user data.
	Quote(nonce, userData []byte) Quote
	// CounterRead returns the platform's trusted monotonic counter for id
	// without incrementing it. Counters live in the platform (the ME/TPM
	// part), NOT in the enclave: every instance of a program on this
	// platform — including a clone the host booted from copied sealed
	// state — reads and bumps the SAME cell, which is exactly the shared
	// medium the beacon protocol uses to make two live instances collide.
	// Reads are cheap (no increment latency, no wear).
	CounterRead(id string) uint64
	// CounterIncrement bumps the platform counter for id and returns the
	// new value, charging the hardware increment latency (~60 ms at full
	// scale, Sec. 6.5) and wear.
	CounterIncrement(id string) uint64
}

// Program is the protocol P loaded into an enclave. A fresh instance is
// created for every epoch, modelling the loss of volatile memory on
// restart. Implementations must not retain state outside the instance.
type Program interface {
	// Identity returns the stable identity string measured into the
	// enclave. It must be the same for every instance of the program.
	Identity() string
	// Init runs at the start of an epoch. It typically loads and unseals
	// persistent state through env.Host().
	Init(env Env) error
	// Call handles one ecall with an opaque payload and returns the
	// response. Returning a HaltError (or wrapping one) permanently halts
	// the enclave — the protocol's assert-false.
	Call(env Env, payload []byte) ([]byte, error)
}

// ProgramFactory creates a fresh Program instance for an epoch.
type ProgramFactory func() Program

// ReadProgram is implemented by programs that can serve read-only calls
// concurrently with their serialized Call stream. HandleRead runs WITHOUT
// the enclave's call serialization (only brief bookkeeping holds the
// lock), so implementations must do their own synchronization against
// state the serialized calls mutate. Real SGX enclaves admit multiple
// threads through separate TCS slots; this models a read-only slot.
type ReadProgram interface {
	Program
	// HandleRead serves one read-only ecall. Returning a HaltError (or
	// wrapping one) permanently halts the enclave, exactly as from Call.
	HandleRead(payload []byte) ([]byte, error)
}

// BackgroundProgram is implemented by programs with work the host runs
// beside the serialized Call stream like a read (an LCM checkpoint's
// seal), with the same synchronization duty and halt rule as HandleRead.
type BackgroundProgram interface {
	Program
	HandleBackground(payload []byte) ([]byte, error)
}

// HaltError signals a protocol violation that must permanently halt the
// enclave (the assert statement of Alg. 2).
type HaltError struct {
	Reason string
	Err    error
}

// Error implements error.
func (e *HaltError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("tee: protocol violation (%s): %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("tee: protocol violation (%s)", e.Reason)
}

// Unwrap returns the wrapped error.
func (e *HaltError) Unwrap() error { return e.Err }

// Halt constructs a HaltError.
func Halt(reason string, err error) *HaltError {
	return &HaltError{Reason: reason, Err: err}
}

var (
	// ErrEnclaveHalted reports a call into an enclave that detected a
	// violation and stopped.
	ErrEnclaveHalted = errors.New("tee: enclave halted after protocol violation")
	// ErrEnclaveStopped reports a call into an enclave that is not
	// currently running an epoch.
	ErrEnclaveStopped = errors.New("tee: enclave not running")
	// ErrAlreadyRunning reports Start on a running enclave.
	ErrAlreadyRunning = errors.New("tee: enclave already running")
)

// EPCConfig models the enclave page cache.
type EPCConfig struct {
	// LimitBytes is the usable EPC size; 0 disables the model. The
	// paper's platform had ≈93 MB usable.
	LimitBytes int64
	// MaxFactor caps the paging penalty multiplier.
	MaxFactor float64
}

// DefaultEPC mirrors the paper's platform: ~93 MB usable EPC, and a
// penalty that saturates at 2.4× extra latency (the +240 % of Sec. 6.2).
func DefaultEPC() EPCConfig {
	return EPCConfig{LimitBytes: 93 << 20, MaxFactor: 2.4}
}

// Platform is one physical TEE-capable machine.
type Platform struct {
	id         string
	rootSecret []byte
	attestKey  aead.Key
	epc        EPCConfig
	model      *latency.Model

	// Trusted monotonic counter bank (the ME/TPM part). One cell per id,
	// created lazily on first use, shared by every enclave on the
	// platform. With counterDir set the cell values also persist across
	// process restarts, modelling the counter's non-volatile memory.
	counterMu  sync.Mutex
	counters   map[string]*tmc.Counter
	counterDir string
}

// PlatformOption configures a Platform.
type PlatformOption func(*Platform)

// WithEPC sets the EPC model.
func WithEPC(cfg EPCConfig) PlatformOption {
	return func(p *Platform) { p.epc = cfg }
}

// WithLatencyModel sets the latency model charged on enclave transitions.
func WithLatencyModel(m *latency.Model) PlatformOption {
	return func(p *Platform) { p.model = m }
}

// WithRootSecret fixes the platform's root secret (32 bytes) instead of
// drawing a fresh random one. On real hardware the root secret is fused
// into the CPU, so sealing keys survive a machine (process) restart;
// standalone servers model that by persisting the secret next to their
// stable storage and passing it back in on relaunch. Everything derived
// from the secret — sealing keys, the attestation key — is then stable
// across restarts too.
func WithRootSecret(secret []byte) PlatformOption {
	return func(p *Platform) { p.rootSecret = append([]byte(nil), secret...) }
}

// WithCounterStore persists the platform's trusted monotonic counter
// values under dir, one small file per counter id. Real TMC hardware is
// non-volatile: its cells survive a machine restart. A standalone server
// that rebuilds its Platform on every process launch needs this so a
// restart does not silently reset the counters to zero — which the beacon
// protocol would (correctly) flag as tampering.
func WithCounterStore(dir string) PlatformOption {
	return func(p *Platform) { p.counterDir = dir }
}

// NewPlatform creates a platform with a fresh root secret (unless
// WithRootSecret supplies one).
func NewPlatform(id string, opts ...PlatformOption) (*Platform, error) {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("tee: platform secret: %w", err)
	}
	p := &Platform{
		id:         id,
		rootSecret: secret,
		epc:        DefaultEPC(),
		model:      latency.None(),
	}
	for _, opt := range opts {
		opt(p)
	}
	if len(p.rootSecret) != 32 {
		return nil, fmt.Errorf("tee: platform root secret must be 32 bytes, got %d", len(p.rootSecret))
	}
	ak, err := keyderiv.AttestationKey(p.rootSecret)
	if err != nil {
		return nil, err
	}
	p.attestKey = ak
	return p, nil
}

// ID returns the platform identifier.
func (p *Platform) ID() string { return p.id }

// counter returns (creating on first use) the platform counter cell for
// id, restored from the counter store when one is configured.
func (p *Platform) counter(id string) *tmc.Counter {
	p.counterMu.Lock()
	defer p.counterMu.Unlock()
	if p.counters == nil {
		p.counters = make(map[string]*tmc.Counter)
	}
	c, ok := p.counters[id]
	if !ok {
		c = tmc.NewAt(p.model, p.loadCounter(id))
		p.counters[id] = c
	}
	return c
}

// counterPath maps a counter id onto its persistence file. Enclaves pick
// the ids; hashing keeps the filename safe whatever they choose.
func (p *Platform) counterPath(id string) string {
	sum := sha256.Sum256([]byte(id))
	return filepath.Join(p.counterDir, "tmc-"+hex.EncodeToString(sum[:12]))
}

func (p *Platform) loadCounter(id string) uint64 {
	if p.counterDir == "" {
		return 0
	}
	b, err := os.ReadFile(p.counterPath(id))
	if err != nil {
		return 0
	}
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// persistCounter writes a cell value durably (temp file + rename), best
// effort: the simulated NVRAM write cannot fail the increment itself.
func (p *Platform) persistCounter(id string, v uint64) {
	if p.counterDir == "" {
		return
	}
	if err := os.MkdirAll(p.counterDir, 0o755); err != nil {
		return
	}
	path := p.counterPath(id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(v, 10)), 0o600); err != nil {
		return
	}
	_ = os.Rename(tmp, path)
}

// NewEnclave creates a trusted execution context for the program on this
// platform. The enclave is created stopped; call Start to begin the first
// epoch.
func (p *Platform) NewEnclave(factory ProgramFactory, host HostServices) *Enclave {
	identity := factory().Identity()
	return &Enclave{
		platform:    p,
		factory:     factory,
		host:        host,
		measurement: Measure(identity),
	}
}

// Enclave is one trusted execution context instance (the paper's T). All
// calls are serialized: SGX enclaves in the paper's prototype are
// single-threaded, which is one of the effects that shape Fig. 5.
type Enclave struct {
	platform    *Platform
	factory     ProgramFactory
	host        HostServices
	measurement Measurement

	mu       sync.Mutex
	label    string
	program  Program // nil when stopped
	env      *env    // the running epoch's, sealing key derived once at Start
	epoch    uint64
	resident int64
	halted   bool
	haltErr  error
}

// Measurement returns the enclave's program measurement.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// SetLabel attaches an operational label ("shard3", "shard3/fork1") to
// the instance. Purely diagnostic: a multi-enclave host uses it to
// identify instances in errors and status output. It has no protocol
// meaning — identity remains the measurement.
func (e *Enclave) SetLabel(label string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.label = label
}

// Label returns the operational label, or "enclave" when none was set.
func (e *Enclave) Label() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.label == "" {
		return "enclave"
	}
	return e.label
}

// Epoch returns the current epoch count.
func (e *Enclave) Epoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

// Running reports whether an epoch is active.
func (e *Enclave) Running() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.program != nil
}

// HaltedErr returns the violation that halted the enclave, or nil.
func (e *Enclave) HaltedErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.haltErr
}

// env implements Env for one epoch.
type env struct {
	enclave *Enclave
	sealing aead.Key
	epoch   uint64
}

func (v *env) SealingKey() aead.Key { return v.sealing }

func (v *env) Rand(b []byte) error {
	_, err := rand.Read(b)
	return err
}

func (v *env) Host() HostServices { return v.enclave.host }

func (v *env) Epoch() uint64 { return v.epoch }

func (v *env) ChargeMemory(delta int64) {
	// Caller already holds the enclave lock: Programs only run inside
	// Start/Call, which serialize on e.mu.
	v.enclave.resident += delta
	if v.enclave.resident < 0 {
		v.enclave.resident = 0
	}
}

func (v *env) ResidentBytes() int64 { return v.enclave.resident }

func (v *env) CounterRead(id string) uint64 {
	return v.enclave.platform.counter(id).Read()
}

func (v *env) CounterIncrement(id string) uint64 {
	p := v.enclave.platform
	val := p.counter(id).Increment()
	p.persistCounter(id, val)
	return val
}

func (v *env) Quote(nonce, userData []byte) Quote {
	e := v.enclave
	q := Quote{
		PlatformID:  e.platform.id,
		Measurement: e.measurement,
		Nonce:       append([]byte(nil), nonce...),
		UserData:    append([]byte(nil), userData...),
	}
	q.MAC = quoteMAC(e.platform.attestKey, &q)
	return q
}

// Start begins a new epoch with a fresh program instance, modelling the
// loss of all volatile enclave memory. The program's Init runs inside.
func (e *Enclave) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.halted {
		return ErrEnclaveHalted
	}
	if e.program != nil {
		return ErrAlreadyRunning
	}
	prog := e.factory()
	if got := Measure(prog.Identity()); got != e.measurement {
		return fmt.Errorf("tee: factory produced program with measurement %v, enclave sealed to %v", got, e.measurement)
	}
	sealing, err := keyderiv.SealingKey(e.platform.rootSecret, e.measurement[:])
	if err != nil {
		return err
	}
	e.epoch++
	e.resident = 0
	e.env = &env{enclave: e, sealing: sealing, epoch: e.epoch}
	e.platform.model.WaitECall()
	if err := prog.Init(e.env); err != nil {
		var halt *HaltError
		if errors.As(err, &halt) {
			e.halted = true
			e.haltErr = err
			return fmt.Errorf("%w: %v", ErrEnclaveHalted, err)
		}
		return fmt.Errorf("tee: program init: %w", err)
	}
	e.program = prog
	return nil
}

// Stop terminates the current epoch; all volatile state is lost.
func (e *Enclave) Stop() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.program = nil
	e.resident = 0
}

// Restart is Stop followed by Start — what a (correct or malicious) server
// does after a crash or at its discretion.
func (e *Enclave) Restart() error {
	e.Stop()
	return e.Start()
}

// pagingFactor computes the EPC penalty multiplier for the current
// resident size.
func (e *Enclave) pagingFactor() float64 {
	limit := e.platform.epc.LimitBytes
	if limit <= 0 || e.resident <= limit {
		return 0
	}
	factor := float64(e.resident-limit) / float64(limit)
	if maxF := e.platform.epc.MaxFactor; maxF > 0 && factor > maxF {
		factor = maxF
	}
	return factor
}

// Call performs one ecall into the enclave. Calls are serialized, charged
// the enclave-transition latency, and charged EPC paging once the resident
// set exceeds the platform's limit. A HaltError from the program
// permanently halts the enclave.
func (e *Enclave) Call(payload []byte) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.halted {
		return nil, ErrEnclaveHalted
	}
	if e.program == nil {
		return nil, ErrEnclaveStopped
	}
	e.platform.model.WaitECall()
	e.platform.model.WaitECallBytes(len(payload))
	if f := e.pagingFactor(); f > 0 {
		e.platform.model.WaitPaging(f)
	}
	resp, err := e.program.Call(e.env, payload)
	if err != nil {
		var halt *HaltError
		if errors.As(err, &halt) {
			e.halted = true
			e.haltErr = err
			e.program = nil
			return nil, fmt.Errorf("%w: %v", ErrEnclaveHalted, err)
		}
		return nil, err
	}
	e.platform.model.WaitOCall()
	return resp, nil
}

// ErrNoReadProgram reports ReadCall on a program that does not implement
// ReadProgram.
var ErrNoReadProgram = errors.New("tee: program does not serve concurrent reads")

// ErrNoBackgroundProgram reports BackgroundCall on any other program.
var ErrNoBackgroundProgram = errors.New("tee: program does not serve background calls")

// ReadCall performs one read-only ecall. Unlike Call it does NOT hold the
// enclave lock while the program runs: any number of ReadCalls proceed
// concurrently with each other and with the serialized Call stream, which
// is the whole point — the program's HandleRead must be safe for that.
// The transition latency and EPC paging are charged like any other ecall.
// A HaltError from the program permanently halts the enclave.
func (e *Enclave) ReadCall(payload []byte) ([]byte, error) { return e.concurrentCall(payload, false) }

// BackgroundCall performs one background ecall, exactly like ReadCall.
func (e *Enclave) BackgroundCall(payload []byte) ([]byte, error) {
	return e.concurrentCall(payload, true)
}

func (e *Enclave) concurrentCall(payload []byte, background bool) ([]byte, error) {
	e.mu.Lock()
	if e.halted {
		e.mu.Unlock()
		return nil, ErrEnclaveHalted
	}
	if e.program == nil {
		e.mu.Unlock()
		return nil, ErrEnclaveStopped
	}
	handle, missing := (func([]byte) ([]byte, error))(nil), ErrNoReadProgram
	if rp, ok := e.program.(ReadProgram); ok && !background {
		handle = rp.HandleRead
	} else if bp, ok := e.program.(BackgroundProgram); ok && background {
		handle = bp.HandleBackground
	} else if background {
		missing = ErrNoBackgroundProgram
	}
	paging := e.pagingFactor()
	e.mu.Unlock()
	if handle == nil {
		return nil, missing
	}
	// Latency charges happen outside the lock so concurrent calls overlap
	// their transition costs instead of convoying on e.mu.
	e.platform.model.WaitECall()
	e.platform.model.WaitECallBytes(len(payload))
	if paging > 0 {
		e.platform.model.WaitPaging(paging)
	}
	resp, err := handle(payload)
	if err != nil {
		var halt *HaltError
		if errors.As(err, &halt) {
			e.mu.Lock()
			e.halted = true
			e.haltErr = err
			e.program = nil
			e.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrEnclaveHalted, err)
		}
		return nil, err
	}
	e.platform.model.WaitOCall()
	return resp, nil
}

// ResidentBytes returns the enclave's resident-byte estimate.
func (e *Enclave) ResidentBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resident
}

// Quote is a remote-attestation statement: "an enclave with this
// measurement, holding this user data, runs on a genuine platform".
type Quote struct {
	PlatformID  string
	Measurement Measurement
	Nonce       []byte
	UserData    []byte
	MAC         []byte
}

func quoteMAC(key aead.Key, q *Quote) []byte {
	mac := hmac.New(sha256.New, key.Bytes())
	mac.Write([]byte("lcm/tee/quote/v1"))
	mac.Write([]byte(q.PlatformID))
	mac.Write(q.Measurement[:])
	writeLV(mac, q.Nonce)
	writeLV(mac, q.UserData)
	return mac.Sum(nil)
}

func writeLV(mac interface{ Write([]byte) (int, error) }, b []byte) {
	var hdr [8]byte
	n := len(b)
	for i := 7; i >= 0; i-- {
		hdr[i] = byte(n)
		n >>= 8
	}
	mac.Write(hdr[:])
	mac.Write(b)
}

// AttestationService verifies quotes. It stands in for the EPID
// infrastructure: platforms register (in reality: are provisioned by the
// manufacturer), and verifiers consult the service.
type AttestationService struct {
	mu   sync.RWMutex
	keys map[string]aead.Key
}

// NewAttestationService returns an empty service.
func NewAttestationService() *AttestationService {
	return &AttestationService{keys: make(map[string]aead.Key)}
}

// Register enrolls a platform.
func (s *AttestationService) Register(p *Platform) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[p.id] = p.attestKey
}

// Attestation verification errors.
var (
	ErrUnknownPlatform  = errors.New("tee: quote from unregistered platform")
	ErrQuoteMAC         = errors.New("tee: quote MAC invalid")
	ErrWrongMeasurement = errors.New("tee: quote measurement does not match expected program")
	ErrNonceMismatch    = errors.New("tee: quote nonce does not match challenge")
)

// Verify checks that q is a genuine quote for the expected measurement and
// the verifier's nonce. On success the verifier may trust q.UserData as
// having been chosen by that enclave.
func (s *AttestationService) Verify(q Quote, expected Measurement, nonce []byte) error {
	s.mu.RLock()
	key, ok := s.keys[q.PlatformID]
	s.mu.RUnlock()
	if !ok {
		return ErrUnknownPlatform
	}
	if !hmac.Equal(q.MAC, quoteMAC(key, &q)) {
		return ErrQuoteMAC
	}
	if q.Measurement != expected {
		return ErrWrongMeasurement
	}
	if !hmac.Equal(q.Nonce, nonce) {
		return ErrNonceMismatch
	}
	return nil
}
