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
	"maps"
	"sort"
	"strings"
	"sync"

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

// Delta change kinds (see Delta below).
const (
	deltaSet byte = iota + 1
	deltaDel
)

// Store is the key-value service. It implements service.Service and
// service.DeltaService: every Put/Del marks its key dirty, and Delta
// serializes just the dirty entries — so the enclave's per-batch sealed
// record grows with the batch, not with the store.
type Store struct {
	data      map[string]string
	dirty     map[string]struct{}
	footprint int64

	// mu orders the writer's mutations against concurrent snapshot
	// readers (service.SnapshotReader). Only mutation sites take the
	// write lock — and per mutation, not per batch, so readers
	// interleave with a long batch. The writer's own plain reads
	// (GET/SCAN in Apply, Delta, Snapshot) need no lock: all mutations
	// happen on the writer's goroutine, and readers never write. The
	// overlay records pre-images only once EndBatch has armed it.
	mu      sync.RWMutex
	overlay service.Overlay[string]
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
	return &Store{data: make(map[string]string), dirty: make(map[string]struct{})}
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
	case opGet:
		key := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: get: %v", ErrMalformedOp, err)
		}
		value, ok := s.data[key]
		if !ok {
			return encodeStatus(statusNotFound, nil), nil
		}
		return encodeStatus(statusOK, []byte(value)), nil

	case opPut:
		key := string(r.Var())
		value := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: put: %v", ErrMalformedOp, err)
		}
		s.mu.Lock()
		old, ok := s.data[key]
		s.overlay.Record(key, old, ok)
		if ok {
			s.footprint -= entryFootprint(key, old)
		}
		s.data[key] = value
		s.footprint += entryFootprint(key, value)
		s.mu.Unlock()
		s.dirty[key] = struct{}{}
		return encodeStatus(statusOK, nil), nil

	case opDel:
		key := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: del: %v", ErrMalformedOp, err)
		}
		old, ok := s.data[key]
		if !ok {
			return encodeStatus(statusNotFound, nil), nil
		}
		s.mu.Lock()
		s.overlay.Record(key, old, true)
		s.footprint -= entryFootprint(key, old)
		delete(s.data, key)
		s.mu.Unlock()
		s.dirty[key] = struct{}{}
		return encodeStatus(statusOK, nil), nil

	case opScan:
		prefix := string(r.Var())
		limit := r.U32()
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: scan: %v", ErrMalformedOp, err)
		}
		return s.scan(prefix, int(limit)), nil

	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrMalformedOp, op[0])
	}
}

func (s *Store) scan(prefix string, limit int) []byte {
	var keys []string // the matches only, not the keyspace
	for k := range s.data {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	w := wire.NewWriter(64)
	w.U8(statusOK)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Var([]byte(k))
		w.Var([]byte(s.data[k]))
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
// store. Each shard's result is sorted and the hash partition assigns
// every key to exactly one shard, so a k-way sorted merge of the parts is
// the globally sorted result; the scan's limit is re-applied after the
// merge (each shard applied it locally, so parts are prefixes of their
// shard's match set and the merged prefix is exact).
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

	decoded := make([][]ScanEntry, 0, len(parts))
	total := 0
	for i, part := range parts {
		entries, err := DecodeScanResult(part)
		if err != nil {
			return nil, fmt.Errorf("kvs: merge scans: shard %d: %w", i, err)
		}
		decoded = append(decoded, entries)
		total += len(entries)
	}

	// K-way merge by smallest head key. Shard counts are small (≤256), so
	// a linear head scan beats a heap in practice.
	heads := make([]int, len(decoded))
	merged := make([]ScanEntry, 0, total)
	for {
		best := -1
		for i, entries := range decoded {
			if heads[i] >= len(entries) {
				continue
			}
			if best < 0 || entries[heads[i]].Key < decoded[best][heads[best]].Key {
				best = i
			}
		}
		if best < 0 {
			break
		}
		merged = append(merged, decoded[best][heads[best]])
		heads[best]++
		if limit > 0 && len(merged) == limit {
			break
		}
	}

	return encodeScanResult(merged), nil
}

// encodeScanResult is the inverse of DecodeScanResult.
func encodeScanResult(entries []ScanEntry) []byte {
	w := wire.NewWriter(64)
	w.U8(statusOK)
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.Var([]byte(e.Key))
		w.Var([]byte(e.Value))
	}
	return w.Bytes()
}

// Len returns the number of stored objects.
func (s *Store) Len() int { return len(s.data) }

// Footprint implements service.Service with the Sec. 6.2 memory model.
func (s *Store) Footprint() int64 { return s.footprint }

// Snapshot implements service.Service. The encoding is deterministic
// (sorted keys) so identical states serialize identically.
func (s *Store) Snapshot() ([]byte, error) {
	keys := make([]string, 0, len(s.data))
	size := 4 // exact, so the writer never regrows (a regrow copies the state)
	for k, v := range s.data {
		keys = append(keys, k)
		size += 8 + len(k) + len(v)
	}
	sort.Strings(keys)
	w := wire.NewWriter(size)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Var([]byte(k))
		w.Var([]byte(s.data[k]))
	}
	// A snapshot captures every pending change, so the dirty set restarts
	// empty (the DeltaService contract).
	clear(s.dirty)
	return w.Bytes(), nil
}

// Freeze implements service.Freezer: values are immutable strings.
func (s *Store) Freeze() func() ([]byte, error) {
	return (&Store{data: maps.Clone(s.data)}).Snapshot
}

// Restore implements service.Service.
func (s *Store) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	n := r.Count(8)
	data := make(map[string]string, n)
	var footprint int64
	for i := 0; i < n; i++ {
		k := string(r.VarView())
		v := string(r.VarView())
		data[k] = v
		footprint += entryFootprint(k, v)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("kvs: restore: %w", err)
	}
	s.mu.Lock()
	s.data = data
	s.footprint = footprint
	s.overlay.Reset()
	s.mu.Unlock()
	s.dirty = make(map[string]struct{})
	return nil
}

// Delta implements service.DeltaService: it serializes the entries touched
// since the last Delta or Snapshot (sorted, so identical change sets encode
// identically) and resets the dirty set; no change is nil. A key written
// and then deleted within the window encodes as a delete.
func (s *Store) Delta() ([]byte, error) {
	if len(s.dirty) == 0 {
		return nil, nil
	}
	keys := make([]string, 0, len(s.dirty))
	for k := range s.dirty {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w := wire.NewWriter(16 + len(keys)*32)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		if v, ok := s.data[k]; ok {
			w.U8(deltaSet)
			w.Var([]byte(k))
			w.Var([]byte(v))
		} else {
			w.U8(deltaDel)
			w.Var([]byte(k))
		}
	}
	clear(s.dirty)
	return w.Bytes(), nil
}

// ApplyDelta implements service.DeltaService. Changes record pre-images
// like Apply's: a healed chain suffix is a mutation like any other from
// the snapshot overlay's point of view.
func (s *Store) ApplyDelta(delta []byte) error {
	if len(delta) == 0 {
		return nil // Delta's "no change"
	}
	r := wire.NewReader(delta)
	n := r.Count(5)
	for i := 0; i < n; i++ {
		kind := r.U8()
		k := string(r.VarView())
		switch kind {
		case deltaSet:
			v := string(r.VarView())
			if r.Err() != nil {
				break
			}
			s.mu.Lock()
			old, ok := s.data[k]
			s.overlay.Record(k, old, ok)
			if ok {
				s.footprint -= entryFootprint(k, old)
			}
			s.data[k] = v
			s.footprint += entryFootprint(k, v)
			s.mu.Unlock()
		case deltaDel:
			if r.Err() != nil {
				break
			}
			s.mu.Lock()
			if old, ok := s.data[k]; ok {
				s.overlay.Record(k, old, true)
				s.footprint -= entryFootprint(k, old)
				delete(s.data, k)
			}
			s.mu.Unlock()
		default:
			return fmt.Errorf("kvs: apply delta: unknown change kind %d", kind)
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("kvs: apply delta: %w", err)
	}
	return nil
}

// PartitionState implements service.Resharder: fragment j receives
// exactly the keys ShardIndex maps onto shard j under an n-way partition,
// each fragment encoded like a snapshot (sorted, deterministic). The
// dirty set is untouched — resharding freezes the instance around the
// split, so delta tracking must survive an aborted attempt.
func (s *Store) PartitionState(n int) ([][]byte, error) {
	if n < 1 {
		return nil, fmt.Errorf("kvs: partition into %d shards", n)
	}
	buckets := make([][]string, n)
	for k := range s.data {
		j := service.ShardIndex(k, n)
		buckets[j] = append(buckets[j], k)
	}
	fragments := make([][]byte, n)
	for j, keys := range buckets {
		sort.Strings(keys)
		w := wire.NewWriter(16 + len(keys)*32)
		w.U32(uint32(len(keys)))
		for _, k := range keys {
			w.Var([]byte(k))
			w.Var([]byte(s.data[k]))
		}
		fragments[j] = w.Bytes()
	}
	return fragments, nil
}

// MergeState implements service.Resharder: the union of the fragments
// becomes the store's state. Source shards partition the keyspace, so the
// fragments are disjoint; a duplicate key means the fragments were not
// produced by one consistent split and is rejected.
func (s *Store) MergeState(fragments [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, frag := range fragments {
		r := wire.NewReader(frag)
		n := r.U32()
		for j := uint32(0); j < n; j++ {
			k := string(r.Var())
			v := string(r.Var())
			if r.Err() != nil {
				break
			}
			if _, ok := s.data[k]; ok {
				return fmt.Errorf("kvs: merge state: key %q in more than one fragment", k)
			}
			s.data[k] = v
			s.footprint += entryFootprint(k, v)
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("kvs: merge state: fragment %d: %w", i, err)
		}
	}
	return nil
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
// SCAN against the last durable version of the store — the live state
// with every still-pending batch's mutations peeled back through the
// undo overlay. Safe for concurrent use with Apply.
func (s *Store) SnapshotRead(op []byte) ([]byte, error) {
	if len(op) == 0 {
		return nil, ErrMalformedOp
	}
	r := wire.NewReader(op[1:])
	switch op[0] {
	case opGet:
		key := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: get: %v", ErrMalformedOp, err)
		}
		s.mu.RLock()
		val, existed, pinned := s.overlay.Resolve(key)
		if !pinned {
			val, existed = s.data[key]
		}
		s.mu.RUnlock()
		if !existed {
			return encodeStatus(statusNotFound, nil), nil
		}
		return encodeStatus(statusOK, []byte(val)), nil

	case opScan:
		prefix := string(r.Var())
		limit := r.U32()
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: scan: %v", ErrMalformedOp, err)
		}
		return s.snapshotScan(prefix, int(limit)), nil

	default:
		return nil, fmt.Errorf("%w: not a read-only op (tag %d)", ErrMalformedOp, op[0])
	}
}

// snapshotScan is scan against the durable snapshot: live entries with
// pending pre-images substituted (a pre-image that says "absent at the
// snapshot" suppresses the live entry; one that says "existed" resurrects
// a since-deleted or overwritten entry).
func (s *Store) snapshotScan(prefix string, limit int) []byte {
	s.mu.RLock()
	entries := make(map[string]string)
	for k, v := range s.data {
		if strings.HasPrefix(k, prefix) {
			entries[k] = v
		}
	}
	s.overlay.Pinned(func(k string, val string, existed bool) bool {
		if !strings.HasPrefix(k, prefix) {
			return true
		}
		if existed {
			entries[k] = val
		} else {
			delete(entries, k)
		}
		return true
	})
	s.mu.RUnlock()

	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	w := wire.NewWriter(64)
	w.U8(statusOK)
	w.U32(uint32(len(keys)))
	for _, k := range keys {
		w.Var([]byte(k))
		w.Var([]byte(entries[k]))
	}
	return w.Bytes()
}

// EndBatch implements service.SnapshotReader.
func (s *Store) EndBatch(seq uint64) {
	s.mu.Lock()
	s.overlay.Close(seq)
	s.mu.Unlock()
}

// AdvanceDurable implements service.SnapshotReader.
func (s *Store) AdvanceDurable(seq uint64) {
	s.mu.Lock()
	s.overlay.Advance(seq)
	s.mu.Unlock()
}

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
