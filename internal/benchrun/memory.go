package benchrun

import (
	"fmt"
	"time"

	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// MemoryPoint is one row of the Sec. 6.2 enclave-memory experiment.
type MemoryPoint struct {
	Objects     int
	ResidentMB  float64
	MeanGet     time.Duration
	MeanPut     time.Duration
	PastEPC     bool
	LatencyGain float64 // mean GET latency relative to the first point
}

// MemoryConfig tunes the enclave-memory experiment. The paper inserts up
// to one million 40 B/100 B objects against the real 93 MB EPC; the
// defaults scale the object count and the EPC limit down together so the
// knee appears at the same *fraction* of the sweep and the run stays fast.
type MemoryConfig struct {
	// Steps are the object counts to measure at.
	Steps []int
	// EPCLimitBytes is the simulated usable EPC.
	EPCLimitBytes int64
	// ProbeOps is how many GET/PUT probes time each step.
	ProbeOps int
	// Scale multiplies injected latencies (0 = none).
	Scale float64
}

func (c MemoryConfig) fill() MemoryConfig {
	if len(c.Steps) == 0 {
		// 1/10 of the paper's sweep: knee expected around 30k objects
		// with a 9.3 MB EPC (the paper's knee: 300k objects at 93 MB).
		c.Steps = []int{5_000, 10_000, 20_000, 30_000, 40_000, 60_000, 80_000, 100_000}
	}
	if c.EPCLimitBytes == 0 {
		c.EPCLimitBytes = 93 << 20 / 10
	}
	if c.ProbeOps == 0 {
		c.ProbeOps = 200
	}
	return c
}

// memProgram hosts a bare kvs.Store in an enclave without state sealing,
// isolating the EPC paging cost exactly as the paper's sgx-gdb
// measurement does.
type memProgram struct {
	store     *kvs.Store
	footprint int64
}

func (p *memProgram) Identity() string { return "benchrun/epc-probe/v1" }

func (p *memProgram) Init(tee.Env) error {
	p.store = kvs.New()
	return nil
}

func (p *memProgram) Call(env tee.Env, payload []byte) ([]byte, error) {
	result, err := p.store.Apply(payload)
	if err != nil {
		return nil, err
	}
	now := p.store.Footprint()
	env.ChargeMemory(now - p.footprint)
	p.footprint = now
	return result, nil
}

// RunMemory regenerates the Sec. 6.2 experiment: enclave heap consumption
// under the measured std::map overhead model, and PUT/GET latency across
// the EPC limit. The paper reports ~93 MB at 300 k objects and up to
// +240 % latency past the limit.
func RunMemory(cfg MemoryConfig, out func(string)) ([]MemoryPoint, error) {
	cfg = cfg.fill()
	model := latency.Scaled(cfg.Scale)
	platform, err := tee.NewPlatform("epc-bench",
		tee.WithLatencyModel(model),
		tee.WithEPC(tee.EPCConfig{LimitBytes: cfg.EPCLimitBytes, MaxFactor: 2.4}))
	if err != nil {
		return nil, err
	}
	enclave := platform.NewEnclave(func() tee.Program { return &memProgram{} }, stablestore.NewMemStore())
	if err := enclave.Start(); err != nil {
		return nil, err
	}

	key := func(i int) string {
		// 40-byte keys as in the paper.
		return fmt.Sprintf("user%036d", i)
	}
	value := string(make([]byte, 100))

	var points []MemoryPoint
	inserted := 0
	var baseGet time.Duration
	for _, step := range cfg.Steps {
		for ; inserted < step; inserted++ {
			if _, err := enclave.Call(kvs.Put(key(inserted), value)); err != nil {
				return nil, fmt.Errorf("insert %d: %w", inserted, err)
			}
		}
		meanGet, err := probe(enclave, func(i int) []byte { return kvs.Get(key(i % step)) }, cfg.ProbeOps)
		if err != nil {
			return nil, err
		}
		meanPut, err := probe(enclave, func(i int) []byte { return kvs.Put(key(i%step), value) }, cfg.ProbeOps)
		if err != nil {
			return nil, err
		}
		if baseGet == 0 {
			baseGet = meanGet
		}
		p := MemoryPoint{
			Objects:     step,
			ResidentMB:  float64(enclave.ResidentBytes()) / (1 << 20),
			MeanGet:     meanGet,
			MeanPut:     meanPut,
			PastEPC:     enclave.ResidentBytes() > cfg.EPCLimitBytes,
			LatencyGain: float64(meanGet) / float64(baseGet),
		}
		points = append(points, p)
		if out != nil {
			out(fmt.Sprintf("objects=%-8d resident=%6.1fMB get=%-10v put=%-10v pastEPC=%v gain=%.2fx",
				p.Objects, p.ResidentMB, p.MeanGet.Round(time.Microsecond),
				p.MeanPut.Round(time.Microsecond), p.PastEPC, p.LatencyGain))
		}
	}
	return points, nil
}

func probe(enclave *tee.Enclave, op func(i int) []byte, n int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := enclave.Call(op(i)); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// MsgSizeRow is one row of the Sec. 6.3 protocol-message-overhead table.
type MsgSizeRow struct {
	ObjectSize     int
	PlainOpBytes   int // encoded kvs op
	InvokeOverhead int // LCM metadata added to the invocation
	ReplyOverhead  int // LCM metadata added to the result
}

// RunMsgSize regenerates the Sec. 6.3 measurement: the LCM protocol adds
// constant metadata to every invocation (45 B: tc, hc, client id, retry
// marker) and every result, independent of the object size.
func RunMsgSize(sizes []int) []MsgSizeRow {
	if len(sizes) == 0 {
		sizes = []int{100, 500, 1000, 1500, 2000, 2500}
	}
	rows := make([]MsgSizeRow, 0, len(sizes))
	for _, size := range sizes {
		op := kvs.Put(string(make([]byte, 40)), string(make([]byte, size)))
		rows = append(rows, MsgSizeRow{
			ObjectSize:     size,
			PlainOpBytes:   len(op),
			InvokeOverhead: wire.InvokeOverhead,
			ReplyOverhead:  wire.ReplyOverhead,
		})
	}
	return rows
}
