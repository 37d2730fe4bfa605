// Package kvs implements the key-value store application of Sec. 5.3: a
// flat namespace of uniquely named objects with GET, PUT and DEL
// operations, running as the functionality F inside a trusted execution
// context (or unprotected, for the native baseline).
//
// The package also models the enclave memory footprint the paper measured
// in Sec. 6.2: the C++ prototype's std::map<std::string, std::string>
// consumed ≈134 % more memory than the raw payload plus 48 bytes of search
// structure per object. Footprint applies the same accounting so the EPC
// paging experiment reproduces the paper's knee.
package kvs

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"lcm/internal/service"
	"lcm/internal/wire"
)

// Operation tags. They start at one so a zero byte is never a valid op.
const (
	opGet byte = iota + 1
	opPut
	opDel
	opScan
)

// Result status codes.
const (
	statusOK byte = iota + 1
	statusNotFound
)

// Memory model constants from Sec. 6.2.
const (
	// overheadNum/overheadDen encode the measured ≈134 % allocator and
	// std::string overhead on the stored bytes.
	overheadNum = 234
	overheadDen = 100
	// perEntryOverhead is the map's internal search-structure cost per
	// object.
	perEntryOverhead = 48
)

// ErrMalformedOp reports an operation that does not decode.
var ErrMalformedOp = errors.New("kvs: malformed operation")

// Store is the key-value service: its operation processor over one
// service.Keyed map of string values. Every PUT/DEL marks its key dirty,
// and Delta serializes just the dirty entries — so the enclave's
// per-batch sealed record grows with the batch, not with the store.
type Store struct {
	kv *service.Keyed[string]
}

// codec encodes a value as a length-prefixed string and charges an entry
// the Sec. 6.2 memory model.
var codec = service.Codec[string]{
	Size:      func(v string) int { return 4 + len(v) },
	Put:       func(w *wire.Writer, v string) { w.Var([]byte(v)) },
	Get:       func(r *wire.Reader) string { return string(r.VarView()) },
	Footprint: entryFootprint,
}

var (
	_ service.Service        = (*Store)(nil)
	_ service.DeltaService   = (*Store)(nil)
	_ service.Sharder        = (*Store)(nil)
	_ service.Scanner        = (*Store)(nil)
	_ service.Resharder      = (*Store)(nil)
	_ service.SnapshotReader = (*Store)(nil)
	_ service.Freezer        = (*Store)(nil)
)

// New returns an empty store.
func New() *Store {
	return &Store{kv: service.NewKeyed(codec)}
}

// Factory returns a service.Factory producing empty stores.
func Factory() service.Factory {
	return func() service.Service { return New() }
}

func entryFootprint(key, value string) int64 {
	raw := int64(len(key) + len(value))
	return raw*overheadNum/overheadDen + perEntryOverhead
}

// Apply implements service.Service.
func (s *Store) Apply(op []byte) ([]byte, error) {
	if len(op) == 0 {
		return nil, ErrMalformedOp
	}
	r := wire.NewReader(op[1:])
	switch op[0] {
	case opGet, opScan:
		return s.read(op, false)

	case opPut:
		key := string(r.VarView())
		value := string(r.VarView())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: put: %v", ErrMalformedOp, err)
		}
		s.kv.Set(key, value)
		return encodeStatus(statusOK, nil), nil

	case opDel:
		key := string(r.VarView())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: del: %v", ErrMalformedOp, err)
		}
		if !s.kv.Delete(key) {
			return encodeStatus(statusNotFound, nil), nil
		}
		return encodeStatus(statusOK, nil), nil

	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrMalformedOp, op[0])
	}
}

// read executes a GET or SCAN against the live state or, if durable,
// against the durable snapshot (SnapshotRead).
func (s *Store) read(op []byte, durable bool) ([]byte, error) {
	r := wire.NewReader(op[1:])
	key := string(r.VarView()) // a GET's key, a SCAN's prefix
	if op[0] == opGet {
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: get: %v", ErrMalformedOp, err)
		}
		var value string
		var ok bool
		if durable {
			value, ok = s.kv.ReadDurable(key)
		} else {
			value, ok = s.kv.Get(key)
		}
		if !ok {
			return encodeStatus(statusNotFound, nil), nil
		}
		return encodeStatus(statusOK, []byte(value)), nil
	}
	limit := int(r.U32())
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: scan: %v", ErrMalformedOp, err)
	}
	matches := s.kv.Range
	if durable {
		matches = s.kv.RangeDurable
	}
	var hits []ScanEntry
	for k, v := range matches(key) { // in key order, so the limit cuts the walk
		if len(hits) == limit && limit > 0 {
			break
		}
		hits = append(hits, ScanEntry{Key: k, Value: v})
	}
	return encodeScanResult(hits), nil
}

// encodeScanResult is the inverse of DecodeScanResult.
func encodeScanResult(entries []ScanEntry) []byte {
	size := 5
	for _, e := range entries {
		size += 8 + len(e.Key) + len(e.Value)
	}
	w := wire.NewWriter(size)
	w.U8(statusOK)
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.Var([]byte(e.Key))
		w.Var([]byte(e.Value))
	}
	return w.Bytes()
}

func encodeStatus(status byte, value []byte) []byte {
	w := wire.NewWriter(1 + 4 + len(value))
	w.U8(status)
	w.Var(value)
	return w.Bytes()
}

// ShardKeys implements service.Sharder: GET/PUT/DEL address exactly one
// key; SCAN spans the namespace and is therefore not shardable.
func (s *Store) ShardKeys(op []byte) []string {
	if len(op) == 0 {
		return nil
	}
	switch op[0] {
	case opGet, opPut, opDel:
		r := wire.NewReader(op[1:])
		key := string(r.Var())
		if r.Err() != nil {
			return nil
		}
		return []string{key}
	default:
		return nil
	}
}

// IsScan implements service.Scanner: SCAN is the store's only
// scatter-gatherable operation.
func (s *Store) IsScan(op []byte) bool {
	return len(op) > 0 && op[0] == opScan
}

// MergeScans implements service.Scanner: it merges per-shard SCAN results
// into the result the scan would have produced against the unsharded
// store. The hash partition assigns every key to exactly one shard, and
// each shard applied the limit to its own sorted matches, so sorting the
// union and applying the limit again is exact.
func (s *Store) MergeScans(op []byte, parts [][]byte) ([]byte, error) {
	if !s.IsScan(op) {
		return nil, fmt.Errorf("%w: merge of non-scan op", ErrMalformedOp)
	}
	r := wire.NewReader(op[1:])
	r.Var() // prefix (already applied per shard)
	limit := int(r.U32())
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: scan: %v", ErrMalformedOp, err)
	}
	var merged []ScanEntry
	for i, part := range parts {
		entries, err := DecodeScanResult(part)
		if err != nil {
			return nil, fmt.Errorf("kvs: merge scans: shard %d: %w", i, err)
		}
		merged = append(merged, entries...)
	}
	slices.SortFunc(merged, func(a, b ScanEntry) int { return strings.Compare(a.Key, b.Key) })
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return encodeScanResult(merged), nil
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return s.kv.Len() }

// Footprint implements service.Service with the Sec. 6.2 memory model.
func (s *Store) Footprint() int64 { return s.kv.Footprint() }

// Snapshot implements service.Service: one service.Keyed section, sorted,
// so identical states serialize identically.
func (s *Store) Snapshot() ([]byte, error) { return service.Encode(s.kv.Snapshot), nil }

// Freeze implements service.Freezer: values are immutable strings.
func (s *Store) Freeze() func() ([]byte, error) { return (&Store{kv: s.kv.Freeze()}).Snapshot }

// Restore implements service.Service.
func (s *Store) Restore(snapshot []byte) error {
	return service.Decode("kvs: restore", snapshot, s.kv.Restore)
}

// Delta implements service.DeltaService: the keys touched since the last
// Delta or Snapshot, one service.Keyed delta section; no change is nil.
func (s *Store) Delta() ([]byte, error) {
	if !s.kv.Dirty() {
		return nil, nil
	}
	return service.Encode(s.kv.Delta), nil
}

// ApplyDelta implements service.DeltaService.
func (s *Store) ApplyDelta(delta []byte) error {
	if len(delta) == 0 {
		return nil // Delta's "no change"
	}
	return service.Decode("kvs: apply delta", delta, s.kv.ApplyDelta)
}

// PartitionState implements service.Resharder: fragment j holds the keys
// ShardIndex maps onto shard j, encoded like a snapshot.
func (s *Store) PartitionState(n int) ([][]byte, error) {
	return service.Partition(n, s.kv.Partition), nil
}

// MergeState implements service.Resharder: the union of the fragments
// becomes the store's state; a key in two fragments is an error.
func (s *Store) MergeState(fragments [][]byte) error {
	return service.Merge("kvs: merge state", fragments, s.kv.Merge)
}

// ---- Snapshot reads (service.SnapshotReader) ----

// ReadOnly is the stateless read classifier: it reports whether an
// encoded operation can never change state and may therefore travel the
// snapshot-read path (client DoRead). Classification depends only on the
// op encoding, so clients use this without a store instance; the enclave
// re-checks server-side via IsReadOnly.
func ReadOnly(op []byte) bool {
	return len(op) > 0 && (op[0] == opGet || op[0] == opScan)
}

// IsReadOnly implements service.SnapshotReader: GET and SCAN never
// change state.
func (s *Store) IsReadOnly(op []byte) bool { return ReadOnly(op) }

// SnapshotRead implements service.SnapshotReader: it executes a GET or
// SCAN against the last durable version of the store. Safe for
// concurrent use with Apply.
func (s *Store) SnapshotRead(op []byte) ([]byte, error) {
	if !ReadOnly(op) {
		return nil, fmt.Errorf("%w: not a read-only op", ErrMalformedOp)
	}
	return s.read(op, true)
}

// EndBatch implements service.SnapshotReader.
func (s *Store) EndBatch(seq uint64) { s.kv.EndBatch(seq) }

// AdvanceDurable implements service.SnapshotReader.
func (s *Store) AdvanceDurable(seq uint64) { s.kv.AdvanceDurable(seq) }

// ---- Operation and result codecs (used by clients) ----

// Get encodes a GET operation.
func Get(key string) []byte {
	w := wire.NewWriter(5 + len(key))
	w.U8(opGet)
	w.Var([]byte(key))
	return w.Bytes()
}

// Put encodes a PUT operation.
func Put(key, value string) []byte {
	w := wire.NewWriter(9 + len(key) + len(value))
	w.U8(opPut)
	w.Var([]byte(key))
	w.Var([]byte(value))
	return w.Bytes()
}

// Del encodes a DEL operation.
func Del(key string) []byte {
	w := wire.NewWriter(5 + len(key))
	w.U8(opDel)
	w.Var([]byte(key))
	return w.Bytes()
}

// Scan encodes a prefix SCAN operation; limit 0 means unlimited.
func Scan(prefix string, limit uint32) []byte {
	w := wire.NewWriter(9 + len(prefix))
	w.U8(opScan)
	w.Var([]byte(prefix))
	w.U32(limit)
	return w.Bytes()
}

// Result is a decoded operation result.
type Result struct {
	Found bool
	Value []byte
}

// DecodeResult parses a GET/PUT/DEL result.
func DecodeResult(b []byte) (Result, error) {
	r := wire.NewReader(b)
	status := r.U8()
	value := r.Var()
	if err := r.Done(); err != nil {
		return Result{}, fmt.Errorf("kvs: decode result: %w", err)
	}
	switch status {
	case statusOK:
		return Result{Found: true, Value: value}, nil
	case statusNotFound:
		return Result{}, nil
	default:
		return Result{}, fmt.Errorf("kvs: unknown status %d", status)
	}
}

// ScanEntry is one key-value pair from a SCAN result.
type ScanEntry struct {
	Key   string
	Value string
}

// DecodeScanResult parses a SCAN result.
func DecodeScanResult(b []byte) ([]ScanEntry, error) {
	r := wire.NewReader(b)
	if status := r.U8(); r.Err() == nil && status != statusOK {
		return nil, fmt.Errorf("kvs: scan status %d", status)
	}
	n := r.Count(8) // an entry is two length-prefixed strings
	out := make([]ScanEntry, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.VarView()
		v := r.VarView()
		out = append(out, ScanEntry{Key: string(k), Value: string(v)})
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kvs: decode scan: %w", err)
	}
	return out, nil
}
