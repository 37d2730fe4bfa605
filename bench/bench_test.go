package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestQuickAllWorkloads is the -quick mode: every workload, timed and
// traced, with 300 ms windows and the oracle on. It keeps every workload
// and decorator compiling and passing under the repository's plain
// `go test ./...`; it measures nothing.
func TestQuickAllWorkloads(t *testing.T) {
	o := options{seed: 1, quick: true, tmp: t.TempDir(), traceOut: t.TempDir() + "/spans.jsonl"}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				out, err := measure(o, w, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if out.verdict.failed != 0 || out.verdict.attempted == 0 {
					t.Fatalf("traced=%v: %d of %d operations failed: %v",
						traced, out.verdict.failed, out.verdict.attempted, out.verdict.problems)
				}
				values := make(map[string]float64)
				for _, m := range out.metrics {
					values[m.Name] = m.Value
				}
				if !traced {
					for name, v := range values {
						if v <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
						}
					}
					continue
				}
				if values["client.self_us_per_op"] <= 0 || values["core.call_us_per_op"] <= 0 ||
					values["stablestore.log_bytes_per_op"] <= 0 || values["core.init_ms"] <= 0 {
					t.Errorf("a layer every workload enters reported nothing: %v", values)
				}
				if got := values["trace.do_sum_err_frac"]; got > 0.02 {
					t.Errorf("client.self + transport.send + client.wait misses the mean latency by %.3f", got)
				}
				replicated := values["replication.mirror_flushes_per_op"] > 0 && values["replication.live_peers"] > 0
				if replicated != (w.replicas > 0) {
					t.Errorf("replication layer active = %v with %d replicas", replicated, w.replicas)
				}
				if (values["core.read_us_per_op"] > 0) != w.snapReads {
					t.Errorf("snapshot read path: core.read_us_per_op = %v with snapReads=%v", values["core.read_us_per_op"], w.snapReads)
				}
				if (values["kvs.scan_us_per_op"] > 0) != (w.scanFrac > 0) {
					t.Errorf("scan path: kvs.scan_us_per_op = %v with scanFrac=%v", values["kvs.scan_us_per_op"], w.scanFrac)
				}
			}
		})
	}
	spans, err := os.ReadFile(o.traceOut)
	if err != nil || !strings.Contains(string(spans), `"name":"core.call"`) {
		t.Errorf("span file: err=%v, %d bytes", err, len(spans))
	}
}

// oracleFixture is a one-shard deployment that exists only as recorded
// history: two clients over three keys.
func oracleFixture(recs ...[]opRecord) *deployment {
	d := &deployment{
		w:        &workload{shards: 1, snapReads: true},
		keys:     []string{"k0", "k1", "k2"},
		keyShard: []uint8{0, 0, 0},
	}
	for i, r := range recs {
		d.sessions = append(d.sessions, &session{id: uint32(i + 1), recs: r})
	}
	return d
}

func TestOracle(t *testing.T) {
	put := func(seq, tag uint64, key uint32) opRecord {
		return opRecord{kind: opPut, seq: seq, stable: 0, tag: tag, key: key, end: int64(seq) * 100, lat: 50}
	}
	get := func(seq, tag uint64, key uint32) opRecord {
		return opRecord{kind: opGet, seq: seq, tag: tag, key: key, end: int64(seq) * 100, lat: 50}
	}
	read := func(snapshot, tag uint64, key uint32, end int64) opRecord {
		return opRecord{kind: opRead, seq: snapshot, tag: tag, key: key, end: end}
	}
	for _, c := range []struct {
		name   string
		a, b   []opRecord
		reject int
	}{
		{"clean", []opRecord{put(1, 0xA, 0), get(3, 0xB, 0)}, []opRecord{put(2, 0xB, 0), get(4, 0xB, 0)}, 0},
		{"stale get", []opRecord{put(1, 0xA, 0), get(3, 0xA, 0)}, []opRecord{put(2, 0xB, 0)}, 1},
		{"lost write", []opRecord{put(1, 0xA, 1), get(2, 0, 1)}, nil, 1},
		{"gap", []opRecord{put(1, 0xA, 0), put(3, 0xB, 0)}, nil, 1},
		{"duplicate seq", []opRecord{put(1, 0xA, 0)}, []opRecord{put(1, 0xB, 1)}, 1},
		{"errored op", []opRecord{put(1, 0xA, 0), {kind: opGet, failed: true}}, nil, 1},
		{"stable ahead of seq", []opRecord{{kind: opPut, seq: 1, stable: 2, tag: 0xA}}, nil, 1},
		{"snapshot read at its seq", []opRecord{put(1, 0xA, 0), read(1, 0xA, 0, 500)}, []opRecord{put(2, 0xB, 0)}, 0},
		// The reported snapshot number is a lower bound: a put issued
		// (at 150) before the read completed (at 500) may be visible.
		{"snapshot read ahead of its seq", []opRecord{put(1, 0xA, 0), read(1, 0xB, 0, 500)}, []opRecord{put(2, 0xB, 0)}, 0},
		{"snapshot read from the future", []opRecord{put(1, 0xA, 0), read(1, 0xB, 0, 120)}, []opRecord{put(2, 0xB, 0)}, 1},
		{"snapshot read of a stale value", []opRecord{put(1, 0xA, 0), put(2, 0xB, 0), read(2, 0xA, 0, 500)}, nil, 1},
		{"snapshot behind own write", []opRecord{put(1, 0xA, 0), put(2, 0xB, 1), read(1, 0xA, 0, 500)}, nil, 1},
	} {
		_, v := oracleFixture(c.a, c.b).checkHistory()
		if v.failed != c.reject {
			t.Errorf("%s: %d rejected, want %d: %v", c.name, v.failed, c.reject, v.problems)
		}
	}
}

func TestOracleScan(t *testing.T) {
	d := &deployment{w: &workload{shards: 2}, keys: make([]string, 200), keyShard: make([]uint8, 200)}
	for i := range d.keyShard {
		d.keyShard[i] = uint8(i % 2) // even keys on shard 0
	}
	model := make([]uint64, 200)
	obs := scanObs{n: 11}
	for i, idx := range scanCandidates(12) {
		model[idx] = uint64(1000 + idx)
		obs.keys[i], obs.tags[i] = uint32(idx), model[idx]
	}
	if !d.scanMatches(&obs, 12, 0, model) || !d.scanMatches(&obs, 12, 1, model) {
		t.Error("a scan equal to the model's prefix scan was rejected")
	}
	stale := obs
	stale.tags[3]++ // key 122, shard 0
	if d.scanMatches(&stale, 12, 0, model) || !d.scanMatches(&stale, 12, 1, model) {
		t.Error("a stale entry must fail exactly the shard that owns its key")
	}
	short := obs
	short.n = 10
	if d.scanMatches(&short, 12, 0, model) {
		t.Error("a scan with a missing entry was accepted")
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json and the declarations in
// this package from drifting apart.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		Workloads []decl
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := file.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: file has %q, code has %q (why: %d chars)", i, got.Name, w.name, len(w.why))
		}
	}
	for _, c := range []struct {
		kind string
		file []decl
		code []metricDef
	}{{"end_to_end", file.EndToEnd, endToEnd}, {"per_layer", file.PerLayer, perLayer}} {
		if len(c.file) != len(c.code) {
			t.Errorf("%s: %d metrics declared, %d implemented", c.kind, len(c.file), len(c.code))
			continue
		}
		for i, def := range c.code {
			want := decl{Name: def.Name, Unit: def.Unit, Better: def.Better, Bound: def.Bound}
			if c.file[i] != want {
				t.Errorf("%s[%d]: file has %+v, code has %+v", c.kind, i, c.file[i], want)
			}
		}
	}
}
