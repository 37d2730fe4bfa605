// Package stablestore provides the untrusted persistent storage of the
// system model (Sec. 2.1): clients, the server and the trusted execution
// context persist state through load and store operations on stable
// storage that survives crashes.
//
// The storage is under the server's control and therefore untrusted by the
// enclave: a malicious server may return a correctly protected but outdated
// blob — the rollback attack of Sec. 2.3. The RollbackStore wrapper models
// exactly that adversary: it retains every version ever stored and can be
// instructed to serve a stale one.
package stablestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lcm/internal/latency"
)

// ErrNotFound reports that a slot has never been stored.
var ErrNotFound = errors.New("stablestore: slot not found")

// ErrLogVersion reports a log file of another format, such as one without
// LogHeader: reading or appending to it fails (no in-place upgrade).
var ErrLogVersion = errors.New("stablestore: log file format version unknown")

// Store is the load/store interface of the system model. Implementations
// must be safe for concurrent use.
//
// Beyond the original whole-blob slots, stores expose append-only log
// slots: ordered sequences of records that the enclave's incremental
// persistence appends sealed delta records to (one per batch) and
// truncates once a checkpoint covers them. Log slots and blob slots share a namespace but
// are distinct objects: storing a blob under a name does not disturb the
// log of the same name. Whether appends fsync follows the store's
// SyncWrites configuration, exactly like blob writes.
type Store interface {
	// Store durably records blob under slot, replacing any previous value.
	Store(slot string, blob []byte) error
	// Load returns the blob most recently stored under slot, or
	// ErrNotFound if the slot was never written. The returned buffer is
	// the caller's to overwrite (the enclave opens sealed blobs in place).
	Load(slot string) ([]byte, error)
	// Append adds one record to the log slot, creating it if necessary.
	Append(slot string, record []byte) error
	// AppendGroup adds records to the log slot in order as one commit
	// group: in sync mode the whole group shares a single fsync — the
	// host's group-commit entry point (the Redis AOF pattern that lets
	// the durable configuration scale with concurrency). A crash during
	// the group may persist any prefix of it, which recovery treats like
	// records the host never acknowledged. An empty group is a no-op.
	AppendGroup(slot string, records [][]byte) error
	// LoadLog returns every record of the log slot in append order. A slot
	// that was never appended to (or was truncated) yields an empty log,
	// not an error. The records belong to the caller, like Load's blob.
	LoadLog(slot string) ([][]byte, error)
	// TruncateLog discards every record of the log slot.
	TruncateLog(slot string) error
}

// Lister is implemented by stores that can enumerate their slots.
type Lister interface {
	Slots() []string
}

// LogScanner is an optional Store extension for streaming reads of log
// slots: fn is called once per record, in append order, without the
// whole log ever being resident. Large delta logs are copied (reshard
// and migration staging) through this path in bounded chunks instead
// of one LoadLog allocation.
//
// Implementations must not hold their internal locks across fn — the
// callback may write to the same underlying store (copying between two
// namespaces of one physical store is exactly the reshard staging
// pattern). The scan observes a consistent prefix: records appended
// after the scan started may or may not be visited.
type LogScanner interface {
	ScanLog(slot string, fn func(record []byte) error) error
}

// ScanLog streams the records of a log slot on any Store: through the
// store's own LogScanner when implemented, otherwise by falling back to
// LoadLog (one allocation, for stores that cannot stream).
func ScanLog(s Store, slot string, fn func(record []byte) error) error {
	if scanner, ok := s.(LogScanner); ok {
		return scanner.ScanLog(slot, fn)
	}
	records, err := s.LoadLog(slot)
	if err != nil {
		return err
	}
	for _, rec := range records {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// NamespaceDeleter is an optional Store extension: delete every blob and
// log slot under a namespace prefix, as laid out by Namespaced (slot
// names of the form "<prefix>/<rest>"). Hosts use it to reclaim retired
// reshard generations' namespaces once every client has adopted the new
// one. Deleting a namespace that holds no slots is a no-op, not an
// error.
type NamespaceDeleter interface {
	DeleteNamespace(prefix string) error
}

// ErrNoNamespaceDelete reports a store that cannot delete namespaces.
var ErrNoNamespaceDelete = errors.New("stablestore: store does not support namespace deletion")

// DeleteNamespace removes every slot under prefix on stores that support
// it, and reports ErrNoNamespaceDelete otherwise — callers doing
// best-effort space reclamation treat that as "keep the files".
func DeleteNamespace(s Store, prefix string) error {
	if d, ok := s.(NamespaceDeleter); ok {
		return d.DeleteNamespace(prefix)
	}
	return ErrNoNamespaceDelete
}

// MemStore is an in-memory Store for tests and benchmarks.
type MemStore struct {
	mu    sync.RWMutex
	slots map[string][]byte
	logs  map[string][][]byte
}

var (
	_ Store      = (*MemStore)(nil)
	_ Lister     = (*MemStore)(nil)
	_ LogScanner = (*MemStore)(nil)
)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{slots: make(map[string][]byte), logs: make(map[string][][]byte)}
}

// Store implements Store.
func (s *MemStore) Store(slot string, blob []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(blob))
	copy(cp, blob)
	s.slots[slot] = cp
	return nil
}

// Load implements Store.
func (s *MemStore) Load(slot string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	blob, ok := s.slots[slot]
	if !ok {
		return nil, ErrNotFound
	}
	cp := make([]byte, len(blob))
	copy(cp, blob)
	return cp, nil
}

// Append implements Store.
func (s *MemStore) Append(slot string, record []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]byte, len(record))
	copy(cp, record)
	s.logs[slot] = append(s.logs[slot], cp)
	return nil
}

// AppendGroup implements Store.
func (s *MemStore) AppendGroup(slot string, records [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, record := range records {
		cp := make([]byte, len(record))
		copy(cp, record)
		s.logs[slot] = append(s.logs[slot], cp)
	}
	return nil
}

// LoadLog implements Store.
func (s *MemStore) LoadLog(slot string) ([][]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	log := s.logs[slot]
	out := make([][]byte, len(log))
	for i, rec := range log {
		cp := make([]byte, len(rec))
		copy(cp, rec)
		out[i] = cp
	}
	return out, nil
}

// TruncateLog implements Store.
func (s *MemStore) TruncateLog(slot string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.logs, slot)
	return nil
}

// ScanLog implements LogScanner. The snapshot is taken under the lock;
// fn runs outside it, so a callback may write back into this store.
func (s *MemStore) ScanLog(slot string, fn func(record []byte) error) error {
	s.mu.RLock()
	log := s.logs[slot]
	snapshot := make([][]byte, len(log))
	for i, rec := range log {
		cp := make([]byte, len(rec))
		copy(cp, rec)
		snapshot[i] = cp
	}
	s.mu.RUnlock()
	for _, rec := range snapshot {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// DeleteNamespace implements NamespaceDeleter.
func (s *MemStore) DeleteNamespace(prefix string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := prefix + "/"
	for k := range s.slots {
		if strings.HasPrefix(k, p) {
			delete(s.slots, k)
		}
	}
	for k := range s.logs {
		if strings.HasPrefix(k, p) {
			delete(s.logs, k)
		}
	}
	return nil
}

// Slots implements Lister.
func (s *MemStore) Slots() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.slots))
	for k := range s.slots {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FileStore persists slots as files in a directory. Writes go through a
// temporary file plus rename so that a crash never leaves a torn blob. In
// Sync mode every write is fsync'd (and charged the model's SyncWrite
// latency), which is the configuration of Fig. 6; otherwise writes are
// asynchronous as in Figs. 4-5.
//
// A log file is extended in logExtent steps ahead of its frames (a zero
// tail), and appends WriteAt the end of the complete frames, so an fsync
// commits the file's size only when an append crosses into a new extent.
// A failed extend, write or fsync drops the slot's handle: the next
// append reopens the log and cuts it back to its complete frames. The
// append offset lives in the FileStore: one FileStore per directory.
//
// Locking contract. Operations serialise per slot, not per store. Each
// slot name (its blob and its log share it) has a mutex held across the
// whole operation — write, fsync and charged latency included — so one
// slot's operations are mutually exclusive and ordered, while different
// slots never wait on each other's I/O: a primary's log append and its
// replicas' mirror appends fsync concurrently. The store mutex guards only
// the slot table and the directory-wide calls (Slots, DeleteNamespace),
// never a slot's I/O. DeleteNamespace takes it and then the lock of every
// slot it removes, so an append racing a TruncateLog or DeleteNamespace of
// its own slot either lands before the unlink or reopens the file — never
// a write to a closed handle. No lock is held across a ScanLog callback.
// TruncateLog retires its slot's entry (log segments are short-lived
// slots); a call that raced it for the entry takes a fresh one.
type FileStore struct {
	dir   string
	sync  bool
	model *latency.Model
	mu    sync.Mutex
	slots map[string]*fileSlot
}

// fileSlot is one slot's lock and, once appended to, its open log handle.
type fileSlot struct {
	mu   sync.Mutex
	dead atomic.Bool // retired by TruncateLog
	log  *os.File
	off  int64 // end of the complete frames: where the next append writes
	size int64 // the file's length: off plus the zero tail
}

// logExtent is the step a log file grows by ahead of its frames.
const logExtent = 64 << 10

var (
	_ Store      = (*FileStore)(nil)
	_ Lister     = (*FileStore)(nil)
	_ LogScanner = (*FileStore)(nil)
)

// NewFileStore creates (if necessary) dir and returns a FileStore over it.
// model may be nil; it is only consulted in sync mode.
func NewFileStore(dir string, syncWrites bool, model *latency.Model) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stablestore: create dir: %w", err)
	}
	return &FileStore{dir: dir, sync: syncWrites, model: model, slots: make(map[string]*fileSlot)}, nil
}

// lock returns slot's entry with its mutex held; the caller unlocks it.
func (s *FileStore) lock(slot string) *fileSlot {
	for {
		s.mu.Lock()
		sl, ok := s.slots[slot]
		if !ok || sl.dead.Load() {
			sl = &fileSlot{}
			s.slots[slot] = sl
		}
		s.mu.Unlock()
		if sl.mu.Lock(); !sl.dead.Load() {
			return sl
		}
		sl.mu.Unlock()
	}
}

// slotStem maps a slot name to its file stem. Slot names are
// protocol-chosen constants, but guard against path separators anyway.
var slotStem = strings.NewReplacer("/", "_", "\\", "_", "..", "_")

func (s *FileStore) path(slot string) string {
	return filepath.Join(s.dir, slotStem.Replace(slot)+".blob")
}

func (s *FileStore) logPath(slot string) string {
	return filepath.Join(s.dir, slotStem.Replace(slot)+".log")
}

// Store implements Store.
func (s *FileStore) Store(slot string, blob []byte) error {
	defer s.lock(slot).mu.Unlock()
	final := s.path(slot)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("stablestore: open temp: %w", err)
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return fmt.Errorf("stablestore: write: %w", err)
	}
	if s.sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("stablestore: fsync: %w", err)
		}
		s.model.WaitSyncWrite()
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("stablestore: close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("stablestore: rename: %w", err)
	}
	return s.syncDir()
}

// syncDir makes the directory's entries durable in sync mode: a rename,
// a log's creation or its unlink is otherwise not guaranteed to survive a
// power cut, which could pair an old blob with a new log (a false
// rollback).
func (s *FileStore) syncDir() error {
	if !s.sync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("stablestore: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("stablestore: fsync dir: %w", err)
	}
	return nil
}

// Load implements Store.
func (s *FileStore) Load(slot string) ([]byte, error) {
	defer s.lock(slot).mu.Unlock()
	blob, err := os.ReadFile(s.path(slot))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("stablestore: read: %w", err)
	}
	return blob, nil
}

// Log framing: a log file starts with LogHeader, then a stream of
// [u32 length | u32 CRC-32C of the payload | payload] frames, big-endian,
// written by the untrusted host (the CRC is no MAC: the enclave
// authenticates each record). The stream ends at its first torn frame, by
// construction unacknowledged work: a zero length (sealed records are
// never empty; a log's tail is zeros), a length past the bytes left, or a
// payload that fails its checksum. A file whose first bytes are zeros or
// part of the header holds no record (a torn creation); any other
// headerless file fails with ErrLogVersion.
const frameHeader = 8

// LogHeader opens every log file: a magic and the format version (1).
const LogHeader = "lcm-log\x01"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends record's frame to dst.
func appendFrame(dst, record []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(record)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(record, castagnoli))
	return append(dst, record...)
}

// scanFrames calls fn with each record of the size-byte frame stream r up
// to its first torn frame, and returns the length of the complete frames.
// A length is checked against the bytes left before its payload is
// allocated, so a corrupt header costs nothing.
func scanFrames(r io.Reader, size int64, fn func(record []byte) error) (end int64, err error) {
	var hdr [frameHeader]byte
	for {
		if _, err = io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		n := int64(binary.BigEndian.Uint32(hdr[:]))
		if n == 0 || n > size-end-frameHeader {
			return end, nil
		}
		rec := make([]byte, n)
		if _, err = io.ReadFull(r, rec); err != nil {
			break
		}
		if crc32.Checksum(rec, castagnoli) != binary.BigEndian.Uint32(hdr[4:]) {
			return end, nil
		}
		if err := fn(rec); err != nil {
			return end, err
		}
		end += frameHeader + n
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return end, nil // a clean end, a torn header, or a file that shrank
	}
	return end, err
}

// scanLog checks the header of the size-byte log file r and calls fn with
// each record behind it up to the first torn frame. It returns where the
// frames start and end; start is -1 for a file that holds no record.
func scanLog(r io.Reader, size int64, fn func(record []byte) error) (start, end int64, err error) {
	head := make([]byte, min(size, int64(len(LogHeader))))
	n, err := io.ReadFull(r, head) // a file that shrank reads as what is left
	if head = head[:n]; err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return 0, 0, err
	}
	switch {
	case len(head) < len(LogHeader) && strings.HasPrefix(LogHeader, string(head)), bytes.Count(head, []byte{0}) == len(head):
		return -1, 0, nil
	case string(head) != LogHeader:
		return 0, 0, ErrLogVersion
	}
	start = int64(len(head))
	end, err = scanFrames(r, size-start, fn)
	return start, start + end, err
}

// Append implements Store. The record's frame is written in a single
// WriteAt, so a crash leaves at most one torn frame behind the complete
// ones — which LoadLog drops, the same recovery contract as a lost final
// Store.
func (s *FileStore) Append(slot string, record []byte) error {
	return s.appendFramed(slot, appendFrame(nil, record))
}

// AppendGroup implements Store: the whole group is framed into one buffer,
// written in a single WriteAt and covered by a single fsync (and a single
// charged SyncWrite latency) — concurrent batches amortize the commit
// cost, which is what lets the sync-writes configuration scale. A crash
// mid-write persists a prefix of complete records plus at most one torn
// frame, both handled by LoadLog.
func (s *FileStore) AppendGroup(slot string, records [][]byte) error {
	if len(records) == 0 {
		return nil
	}
	size := 0
	for _, record := range records {
		size += frameHeader + len(record)
	}
	framed := make([]byte, 0, size)
	for _, record := range records {
		framed = appendFrame(framed, record)
	}
	return s.appendFramed(slot, framed)
}

// appendFramed writes pre-framed bytes at the end of a log slot's
// complete frames (opening the log if needed), extends the file first
// when they do not fit, and fsyncs once in sync mode. Any failure drops
// the handle, so the next append reopens and cuts the log back.
func (s *FileStore) appendFramed(slot string, framed []byte) error {
	sl := s.lock(slot)
	defer sl.mu.Unlock()
	if sl.log == nil {
		if err := s.openLog(sl, slot); err != nil {
			return err
		}
	}
	var err error
	if end := sl.off + int64(len(framed)); end > sl.size {
		sl.size = (end + logExtent - 1) / logExtent * logExtent
		err = sl.log.Truncate(sl.size)
	}
	if err == nil {
		_, err = sl.log.WriteAt(framed, sl.off)
	}
	if err == nil && s.sync {
		err = sl.log.Sync()
	}
	if err != nil {
		sl.closeLog()
		return fmt.Errorf("stablestore: append: %w", err)
	}
	sl.off += int64(len(framed))
	if s.sync {
		s.model.WaitSyncWrite()
	}
	return nil
}

// openLog opens sl's log for positional writes. A crash can leave a torn
// frame behind the complete ones, which LoadLog drops; appending behind it
// would bury every later record inside that frame, so the next restart
// would cut off acknowledged records (a false rollback). The file is
// therefore cut back to its complete frames first, zero tail included;
// the next append re-extends it; a file that holds no record, to a bare
// header. A newly created log's directory entry is made durable in sync
// mode. A file in another format is left alone.
func (s *FileStore) openLog(sl *fileSlot, slot string) error {
	f, err := os.OpenFile(s.logPath(slot), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("stablestore: open log: %w", err)
	}
	var start, end int64
	fi, err := f.Stat()
	if err == nil {
		start, end, err = scanLog(bufio.NewReader(f), fi.Size(), func([]byte) error { return nil })
	}
	if err == nil && start < 0 {
		if err = f.Truncate(0); err == nil {
			_, err = f.WriteAt([]byte(LogHeader), 0)
		}
		end = int64(len(LogHeader))
	} else if err == nil && end < fi.Size() {
		err = f.Truncate(end)
	}
	if err == nil && fi.Size() == 0 {
		err = s.syncDir()
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("stablestore: open log: %w", err)
	}
	sl.log, sl.off, sl.size = f, end, end
	return nil
}

// LoadLog implements Store. A torn trailing record (host crash mid-append)
// is silently dropped: the enclave only releases replies after the host
// acknowledges the append, so a torn tail is by construction unacked work.
// With the slot's handle open only the complete frames are read (the rest
// is zeros); otherwise the whole file.
func (s *FileStore) LoadLog(slot string) ([][]byte, error) {
	sl := s.lock(slot)
	defer sl.mu.Unlock()
	var raw []byte
	var err error
	if sl.log != nil {
		raw = make([]byte, sl.off)
		_, err = sl.log.ReadAt(raw, 0)
	} else if raw, err = os.ReadFile(s.logPath(slot)); errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("stablestore: read log: %w", err)
	}
	var records [][]byte
	if _, _, err = scanLog(bytes.NewReader(raw), int64(len(raw)), func(rec []byte) error {
		records = append(records, rec)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("stablestore: log %s: %w", slot, err)
	}
	return records, nil
}

// ScanLog implements LogScanner: records stream through a bounded read
// buffer, so a multi-gigabyte delta log is copied without ever being
// resident. The scan covers the log's bytes at scan start — the complete
// frames when the slot's handle is open, the whole file otherwise (a
// consistent prefix: later appends are by construction unacknowledged
// relative to the scan); a torn trailing frame is dropped exactly like in
// LoadLog. The slot's lock is only held to snapshot the end, never across
// fn, so a callback may append to this or any other slot of the same
// store.
func (s *FileStore) ScanLog(slot string, fn func(record []byte) error) error {
	sl := s.lock(slot)
	path := s.logPath(slot)
	end := sl.off
	var err error
	if sl.log == nil {
		var fi os.FileInfo
		if fi, err = os.Stat(path); err == nil {
			end = fi.Size()
		}
	}
	sl.mu.Unlock()
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("stablestore: scan log: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("stablestore: scan log: %w", err)
	}
	defer f.Close()
	if _, _, err = scanLog(bufio.NewReaderSize(io.LimitReader(f, end), 64<<10), end, fn); errors.Is(err, ErrLogVersion) {
		err = fmt.Errorf("stablestore: log %s: %w", slot, err)
	}
	return err
}

// closeLog drops the slot's append handle; the caller holds sl.mu.
func (sl *fileSlot) closeLog() {
	if sl.log != nil {
		sl.log.Close()
		sl.log, sl.off, sl.size = nil, 0, 0
	}
}

// TruncateLog implements Store.
func (s *FileStore) TruncateLog(slot string) error {
	sl := s.lock(slot)
	sl.closeLog()
	err := os.Remove(s.logPath(slot))
	sl.dead.Store(true)
	sl.mu.Unlock()
	s.mu.Lock()
	if s.slots[slot] == sl {
		delete(s.slots, slot)
	}
	s.mu.Unlock()
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("stablestore: truncate log: %w", err)
	}
	return s.syncDir()
}

// DeleteNamespace implements NamespaceDeleter. Slot names sanitize "/"
// to "_" on disk, so a namespace's files all share the sanitized prefix
// plus the separator. Every known slot under the prefix stays locked from
// before its append handle is closed until the files are gone.
func (s *FileStore) DeleteNamespace(prefix string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	slotPrefix := prefix + "/"
	for slot, sl := range s.slots {
		if strings.HasPrefix(slot, slotPrefix) {
			sl.mu.Lock()
			defer sl.mu.Unlock()
			sl.closeLog()
		}
	}
	safe := slotStem.Replace(slotPrefix)
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("stablestore: delete namespace: %w", err)
	}
	var firstErr error
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), safe) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("stablestore: delete namespace: %w", err)
		}
	}
	return firstErr
}

// Slots implements Lister.
func (s *FileStore) Slots() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".blob"); ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// NamespacedSlot returns the slot name a Namespaced store with the given
// prefix uses on its inner store. Attack wrappers (RollbackStore,
// CrashStore) sit below the namespacing, so adversarial tooling that
// addresses one shard's storage builds the inner name with this helper.
func NamespacedSlot(prefix, slot string) string {
	return prefix + "/" + slot
}

// Namespaced wraps a Store so that every slot (blob and log alike) lives
// under a prefix on the inner store. It is how a sharded host gives each
// enclave instance a private storage namespace over one physical store:
// shard i's sealed blobs and delta log become "shard<i>/<slot>" without
// the enclave or the protocol knowing about the prefix.
type Namespaced struct {
	inner  Store
	prefix string
}

var _ Store = (*Namespaced)(nil)

// NewNamespaced wraps inner under prefix.
func NewNamespaced(inner Store, prefix string) *Namespaced {
	return &Namespaced{inner: inner, prefix: prefix}
}

func (s *Namespaced) slot(name string) string { return NamespacedSlot(s.prefix, name) }

// Store implements Store.
func (s *Namespaced) Store(slot string, blob []byte) error {
	return s.inner.Store(s.slot(slot), blob)
}

// Load implements Store.
func (s *Namespaced) Load(slot string) ([]byte, error) {
	return s.inner.Load(s.slot(slot))
}

// Append implements Store.
func (s *Namespaced) Append(slot string, record []byte) error {
	return s.inner.Append(s.slot(slot), record)
}

// AppendGroup implements Store.
func (s *Namespaced) AppendGroup(slot string, records [][]byte) error {
	return s.inner.AppendGroup(s.slot(slot), records)
}

// LoadLog implements Store.
func (s *Namespaced) LoadLog(slot string) ([][]byte, error) {
	return s.inner.LoadLog(s.slot(slot))
}

// TruncateLog implements Store.
func (s *Namespaced) TruncateLog(slot string) error {
	return s.inner.TruncateLog(s.slot(slot))
}

// ScanLog implements LogScanner, streaming through the inner store's
// scanner when it has one (falling back to one LoadLog otherwise).
func (s *Namespaced) ScanLog(slot string, fn func(record []byte) error) error {
	return ScanLog(s.inner, s.slot(slot), fn)
}

// DeleteNamespace implements NamespaceDeleter when the inner store does,
// joining the prefixes.
func (s *Namespaced) DeleteNamespace(prefix string) error {
	return DeleteNamespace(s.inner, s.slot(prefix))
}

var _ LogScanner = (*Namespaced)(nil)

// RollbackStore wraps a Store and retains the full version history of every
// slot, modelling a malicious server's stable storage. While inactive it
// behaves exactly like the wrapped store. After RollbackTo or Pin the
// attacker serves stale versions on Load — a rollback attack (Sec. 2.3).
type RollbackStore struct {
	mu       sync.Mutex
	inner    Store
	history  map[string][][]byte
	pinned   map[string][]byte // attack: stale blob served on Load
	logs     map[string][][]byte
	logPin   map[string]int // attack: serve only the first n log records
	dropping bool           // attack: silently discard new Stores
}

var _ Store = (*RollbackStore)(nil)

// NewRollbackStore wraps inner.
func NewRollbackStore(inner Store) *RollbackStore {
	return &RollbackStore{
		inner:   inner,
		history: make(map[string][][]byte),
		pinned:  make(map[string][]byte),
		logs:    make(map[string][][]byte),
		logPin:  make(map[string]int),
	}
}

// Store implements Store, recording the version. When DropWrites is active
// the write is acknowledged but discarded — a server pretending to persist.
func (s *RollbackStore) Store(slot string, blob []byte) error {
	s.mu.Lock()
	cp := make([]byte, len(blob))
	copy(cp, blob)
	s.history[slot] = append(s.history[slot], cp)
	dropping := s.dropping
	s.mu.Unlock()
	if dropping {
		return nil
	}
	return s.inner.Store(slot, blob)
}

// Load implements Store, serving the pinned stale version when the attack
// is active.
func (s *RollbackStore) Load(slot string) ([]byte, error) {
	s.mu.Lock()
	stale, ok := s.pinned[slot]
	s.mu.Unlock()
	if ok {
		cp := make([]byte, len(stale))
		copy(cp, stale)
		return cp, nil
	}
	return s.inner.Load(slot)
}

// Append implements Store, mirroring the log so the attacker can later
// serve a truncated suffix. When DropWrites is active the append is
// acknowledged but discarded.
func (s *RollbackStore) Append(slot string, record []byte) error {
	s.mu.Lock()
	dropping := s.dropping
	if !dropping {
		cp := make([]byte, len(record))
		copy(cp, record)
		s.logs[slot] = append(s.logs[slot], cp)
	}
	s.mu.Unlock()
	if dropping {
		return nil
	}
	return s.inner.Append(slot, record)
}

// AppendGroup implements Store, mirroring the whole group (or swallowing
// it under DropWrites, the host that lies about a group commit).
func (s *RollbackStore) AppendGroup(slot string, records [][]byte) error {
	s.mu.Lock()
	dropping := s.dropping
	if !dropping {
		for _, record := range records {
			cp := make([]byte, len(record))
			copy(cp, record)
			s.logs[slot] = append(s.logs[slot], cp)
		}
	}
	s.mu.Unlock()
	if dropping {
		return nil
	}
	return s.inner.AppendGroup(slot, records)
}

// LoadLog implements Store, serving only the pinned prefix when the
// log-truncation attack is active — the rollback attack against the
// delta-log persistence path.
func (s *RollbackStore) LoadLog(slot string) ([][]byte, error) {
	s.mu.Lock()
	pin, pinned := s.logPin[slot]
	var prefix [][]byte
	if pinned {
		log := s.logs[slot]
		if pin > len(log) {
			pin = len(log)
		}
		prefix = make([][]byte, pin)
		for i := 0; i < pin; i++ {
			cp := make([]byte, len(log[i]))
			copy(cp, log[i])
			prefix[i] = cp
		}
	}
	s.mu.Unlock()
	if pinned {
		return prefix, nil
	}
	return s.inner.LoadLog(slot)
}

// TruncateLog implements Store (the honest segment drop). When
// DropWrites is active the truncation is swallowed like any other write,
// leaving mirror and inner store consistent.
func (s *RollbackStore) TruncateLog(slot string) error {
	s.mu.Lock()
	dropping := s.dropping
	if !dropping {
		delete(s.logs, slot)
	}
	s.mu.Unlock()
	if dropping {
		return nil
	}
	return s.inner.TruncateLog(slot)
}

// ScanLog implements LogScanner: the log-truncation attack applies to
// streamed reads exactly as to LoadLog, so an adversarial store cannot
// be bypassed by the streaming copy path.
func (s *RollbackStore) ScanLog(slot string, fn func(record []byte) error) error {
	s.mu.Lock()
	_, pinned := s.logPin[slot]
	s.mu.Unlock()
	if pinned {
		records, err := s.LoadLog(slot)
		if err != nil {
			return err
		}
		for _, rec := range records {
			if err := fn(rec); err != nil {
				return err
			}
		}
		return nil
	}
	return ScanLog(s.inner, slot, fn)
}

var _ LogScanner = (*RollbackStore)(nil)

// DeleteNamespace implements NamespaceDeleter, purging the attacker's
// retained history and log mirrors under the prefix along with the inner
// store's slots — a deleted namespace cannot be resurrected by a later
// rollback.
func (s *RollbackStore) DeleteNamespace(prefix string) error {
	s.mu.Lock()
	p := prefix + "/"
	for k := range s.history {
		if strings.HasPrefix(k, p) {
			delete(s.history, k)
		}
	}
	for k := range s.pinned {
		if strings.HasPrefix(k, p) {
			delete(s.pinned, k)
		}
	}
	for k := range s.logs {
		if strings.HasPrefix(k, p) {
			delete(s.logs, k)
		}
	}
	for k := range s.logPin {
		if strings.HasPrefix(k, p) {
			delete(s.logPin, k)
		}
	}
	s.mu.Unlock()
	return DeleteNamespace(s.inner, prefix)
}

// LogLen returns the number of records currently in the log slot.
func (s *RollbackStore) LogLen(slot string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.logs[slot])
}

// RollbackLogBy pins the log slot to drop its last n records on LoadLog —
// a malicious host serving a stale delta-log suffix. It reports whether
// the log holds at least n records.
func (s *RollbackStore) RollbackLogBy(slot string, n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	log := s.logs[slot]
	if n < 0 || n > len(log) {
		return false
	}
	s.logPin[slot] = len(log) - n
	return true
}

// Versions returns how many versions of slot have been stored.
func (s *RollbackStore) Versions(slot string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.history[slot])
}

// RollbackTo pins version index (0-based, oldest first) of slot so that
// subsequent Loads return it. It reports whether the version exists.
func (s *RollbackStore) RollbackTo(slot string, index int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.history[slot]
	if index < 0 || index >= len(h) {
		return false
	}
	s.pinned[slot] = h[index]
	return true
}

// RollbackBy pins the version n writes before the latest one.
func (s *RollbackStore) RollbackBy(slot string, n int) bool {
	s.mu.Lock()
	h := s.history[slot]
	s.mu.Unlock()
	return s.RollbackTo(slot, len(h)-1-n)
}

// ClearAttack stops serving stale versions and stops dropping writes.
func (s *RollbackStore) ClearAttack() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pinned = make(map[string][]byte)
	s.logPin = make(map[string]int)
	s.dropping = false
}

// DropWrites makes subsequent Stores be acknowledged but not persisted.
func (s *RollbackStore) DropWrites(drop bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropping = drop
}

// CrashStore wraps a Store and fails writes on command, simulating a host
// crash between the enclave producing a sealed state and the host
// persisting it (the §4.6.1 crash-tolerance scenarios).
type CrashStore struct {
	mu        sync.Mutex
	inner     Store
	failAfter int // number of successful Stores remaining; -1 = never fail
}

var _ Store = (*CrashStore)(nil)

// ErrCrashed reports an injected storage crash.
var ErrCrashed = errors.New("stablestore: injected crash")

// NewCrashStore wraps inner with crash injection disabled.
func NewCrashStore(inner Store) *CrashStore {
	return &CrashStore{inner: inner, failAfter: -1}
}

// FailAfter arranges for the next n Stores to succeed and every one after
// that to fail with ErrCrashed, until Reset.
func (s *CrashStore) FailAfter(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAfter = n
}

// Reset disables crash injection.
func (s *CrashStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failAfter = -1
}

// write charges one write against the crash budget.
func (s *CrashStore) write() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failAfter == 0 {
		return ErrCrashed
	}
	if s.failAfter > 0 {
		s.failAfter--
	}
	return nil
}

// Store implements Store.
func (s *CrashStore) Store(slot string, blob []byte) error {
	if err := s.write(); err != nil {
		return err
	}
	return s.inner.Store(slot, blob)
}

// Load implements Store.
func (s *CrashStore) Load(slot string) ([]byte, error) {
	return s.inner.Load(slot)
}

// Append implements Store; appends count as writes for crash injection.
func (s *CrashStore) Append(slot string, record []byte) error {
	if err := s.write(); err != nil {
		return err
	}
	return s.inner.Append(slot, record)
}

// AppendGroup implements Store; the group is one durability event, so it
// charges a single write against the crash budget — a crash fails the
// whole group's fsync, exactly what the group-commit recovery tests need
// to inject.
func (s *CrashStore) AppendGroup(slot string, records [][]byte) error {
	if len(records) == 0 {
		return nil
	}
	if err := s.write(); err != nil {
		return err
	}
	return s.inner.AppendGroup(slot, records)
}

// LoadLog implements Store.
func (s *CrashStore) LoadLog(slot string) ([][]byte, error) {
	return s.inner.LoadLog(slot)
}

// ScanLog implements LogScanner; reads are never crash-charged.
func (s *CrashStore) ScanLog(slot string, fn func(record []byte) error) error {
	return ScanLog(s.inner, slot, fn)
}

var _ LogScanner = (*CrashStore)(nil)

// DeleteNamespace implements NamespaceDeleter when the inner store does;
// reclamation is not crash-charged (it is host maintenance, not a
// protocol durability event).
func (s *CrashStore) DeleteNamespace(prefix string) error {
	return DeleteNamespace(s.inner, prefix)
}

// TruncateLog implements Store; truncations count as writes.
func (s *CrashStore) TruncateLog(slot string) error {
	if err := s.write(); err != nil {
		return err
	}
	return s.inner.TruncateLog(slot)
}
