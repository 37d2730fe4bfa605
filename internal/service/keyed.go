package service

import (
	"fmt"
	"iter"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"

	"lcm/internal/wire"
)

// Codec is what a service tells Keyed about its value type. The encoding
// must be canonical (one value, one byte string), so a decoded state
// re-encodes to the bytes it came from.
type Codec[V any] struct {
	Size      func(v V) int               // encoded bytes of v
	Put       func(w *wire.Writer, v V)   // encode v
	Get       func(r *wire.Reader) V      // decode a value; errors go to r
	Footprint func(key string, v V) int64 // resident bytes of one entry
	// Route names the item an entry moves with on a reshard; nil routes
	// by the key.
	Route func(key string, v V) string
}

// Keyed is a service's state as one typed map: the serialization
// interface of Sec. 5.2, written once for every service whose state is
// named items. One ordered tree (keyIndex) holds the keys and their
// values, so a key is stored once, and ranges, snapshots and fragments
// come out sorted without a sort. Keyed tracks the keys changed since the
// last Delta or Snapshot, a running Footprint and, once snapshot reads
// are armed, the pre-images a read at the durable sequence number needs.
//
// Its codec methods read and write one section of a wire message (a
// service with several maps joins their sections with Encode, Decode,
// Partition and Merge). A snapshot or fragment section is
//
//	U32 n, (Var key, value)*                            keys ascending
//
// and a delta section is
//
//	U32 n, (U8 set, Var key, value | U8 del, Var key)*  keys ascending
//
// Decoders report errors through the wire.Reader and stop at the first.
// ReadDurable, RangeDurable and PreImages may run beside the writer; the
// rest is the writer's. Only mutations take the lock, once each, so
// snapshot readers interleave with a long batch.
type Keyed[V any] struct {
	codec     Codec[V]
	index     keyIndex[V] // the entries
	dirty     map[string]struct{}
	footprint int64

	mu      sync.RWMutex
	overlay overlay[V]
}

// Delta change kinds.
const (
	deltaSet byte = iota + 1
	deltaDel
)

// NewKeyed returns an empty map over codec.
func NewKeyed[V any](codec Codec[V]) *Keyed[V] {
	return &Keyed[V]{codec: codec, dirty: make(map[string]struct{})}
}

// Get returns key's live value.
func (k *Keyed[V]) Get(key string) (V, bool) { return k.index.get(key) }

// Len returns the number of entries.
func (k *Keyed[V]) Len() int { return k.index.n }

// Footprint is the codec's Footprint summed over every entry.
func (k *Keyed[V]) Footprint() int64 { return k.footprint }

// Dirty reports whether an entry changed since the last Delta or
// Snapshot.
func (k *Keyed[V]) Dirty() bool { return len(k.dirty) > 0 }

// Set writes key's value and marks key dirty.
func (k *Keyed[V]) Set(key string, v V) {
	k.put(key, v)
	k.dirty[key] = struct{}{}
}

// Delete removes key and marks it dirty; it reports false, changing
// nothing, if key is absent.
func (k *Keyed[V]) Delete(key string) bool {
	if !k.del(key) {
		return false
	}
	k.dirty[key] = struct{}{}
	return true
}

// put and del change an entry and record its pre-image without marking
// it dirty: ApplyDelta replays changes that are already sealed.
func (k *Keyed[V]) put(key string, v V) {
	k.mu.Lock()
	old, ok := k.index.set(key, v)
	k.overlay.record(key, old, ok)
	if ok {
		k.footprint -= k.codec.Footprint(key, old)
	}
	k.footprint += k.codec.Footprint(key, v)
	k.mu.Unlock()
}

func (k *Keyed[V]) del(key string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	old, ok := k.index.delete(key)
	if ok {
		k.overlay.record(key, old, true)
		k.footprint -= k.codec.Footprint(key, old)
	}
	return ok
}

// Snapshot appends the snapshot section of every entry to w and clears
// the dirty set.
func (k *Keyed[V]) Snapshot(w *wire.Writer) {
	ws := []wire.Writer{*w}
	k.Partition(ws)
	*w = ws[0]
	k.resetDirty()
}

// Partition appends to ws[j] the snapshot section of the entries whose
// route name ShardIndex maps onto shard j of len(ws). Each writer grows
// once, by exactly its section's size: a regrow would copy the state. The
// dirty set is untouched: delta tracking must survive an aborted reshard.
func (k *Keyed[V]) Partition(ws []wire.Writer) {
	counts, sizes := make([]int, len(ws)), make([]int, len(ws))
	for key, v := range k.index.from("") {
		j := k.shard(key, v, len(ws))
		counts[j]++
		sizes[j] += 4 + len(key) + k.codec.Size(v)
	}
	for j := range ws {
		ws[j].Grow(4 + sizes[j])
		ws[j].U32(uint32(counts[j]))
	}
	for key, v := range k.index.from("") {
		w := &ws[k.shard(key, v, len(ws))]
		w.Var([]byte(key))
		k.codec.Put(w, v)
	}
}

// shard is the shard of n an entry moves to.
func (k *Keyed[V]) shard(key string, v V, n int) int {
	if n > 1 && k.codec.Route != nil {
		key = k.codec.Route(key, v)
	}
	return ShardIndex(key, n)
}

// count reads a snapshot section's entry count, bounded by what r holds.
func (k *Keyed[V]) count(r *wire.Reader) int {
	var zero V
	return r.Count(4 + k.codec.Size(zero))
}

// read decodes the n entries of a snapshot section, calling f for each.
// A key that does not sort after the one before it fails r, so a state
// has one encoding.
func (k *Keyed[V]) read(r *wire.Reader, n int, f func(key string, v V)) {
	prev := ""
	for i := 0; i < n && r.Err() == nil; i++ {
		key := string(r.VarView())
		v := k.codec.Get(r)
		if r.Err() != nil {
			return
		}
		if i > 0 && key <= prev {
			r.Fail(fmt.Errorf("entry %d: key out of order", i))
			return
		}
		prev = key
		f(key, v)
	}
}

// Restore replaces the entries with the snapshot section r holds and
// clears the dirty set and the pending pre-images; an armed overlay stays
// armed. On a decode error it replaces nothing (a service with several
// sections may keep the ones before the error; its caller halts).
func (k *Keyed[V]) Restore(r *wire.Reader) {
	n := k.count(r)
	keys, vals := make([]string, 0, n), make([]V, 0, n)
	var footprint int64
	k.read(r, n, func(key string, v V) {
		keys, vals = append(keys, key), append(vals, v)
		footprint += k.codec.Footprint(key, v)
	})
	if r.Err() != nil {
		return
	}
	k.mu.Lock()
	k.index, k.footprint = sortedIndex(keys, vals), footprint
	k.overlay.gens = nil
	k.mu.Unlock()
	k.dirty = make(map[string]struct{})
}

// Merge adds the entries of a fragment section. Fragments of one split
// are disjoint, so a key already present fails r.
func (k *Keyed[V]) Merge(r *wire.Reader) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.read(r, k.count(r), func(key string, v V) {
		if _, dup := k.index.get(key); dup {
			r.Fail(fmt.Errorf("key %q in more than one fragment", key))
			return
		}
		k.index.set(key, v)
		k.footprint += k.codec.Footprint(key, v)
	})
}

// Delta appends the delta section of the keys changed since the last
// Delta or Snapshot and clears the dirty set: a dirty key that is present
// is a set, an absent one a del.
func (k *Keyed[V]) Delta(w *wire.Writer) {
	keys := make([]string, 0, len(k.dirty))
	for key := range k.dirty {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	now := make([]overlayPre[V], len(keys)) // each key's value, if present
	size := 4
	for i, key := range keys {
		now[i].val, now[i].existed = k.index.get(key)
		size += 5 + len(key)
		if now[i].existed {
			size += k.codec.Size(now[i].val)
		}
	}
	w.Grow(size)
	w.U32(uint32(len(keys)))
	for i, key := range keys {
		if !now[i].existed {
			w.U8(deltaDel)
			w.Var([]byte(key))
			continue
		}
		w.U8(deltaSet)
		w.Var([]byte(key))
		k.codec.Put(w, now[i].val)
	}
	k.resetDirty()
}

// resetDirty empties the dirty set. clear walks a map's whole capacity,
// which never shrinks, so a set larger than a batch dirties is replaced
// instead: one window that dirtied many keys must not tax later deltas.
func (k *Keyed[V]) resetDirty() {
	if len(k.dirty) > 64 {
		k.dirty = make(map[string]struct{})
		return
	}
	clear(k.dirty)
}

// ApplyDelta folds the delta section r holds into the entries. Its
// changes record pre-images like Set's (a healed chain suffix is a
// mutation like any other to a snapshot reader) and mark nothing dirty.
func (k *Keyed[V]) ApplyDelta(r *wire.Reader) {
	n := r.Count(5) // U8 kind, Var key
	for i := 0; i < n && r.Err() == nil; i++ {
		kind, key := r.U8(), r.VarView()
		switch kind {
		case deltaSet:
			if v := k.codec.Get(r); r.Err() == nil {
				k.put(string(key), v)
			}
		case deltaDel:
			if r.Err() == nil {
				k.del(string(key))
			}
		default:
			r.Fail(fmt.Errorf("unknown change kind %d", kind))
		}
	}
}

// Freeze returns a copy of the entries as of the call, whose Snapshot is
// safe to run on another goroutine while k changes.
func (k *Keyed[V]) Freeze() *Keyed[V] {
	return &Keyed[V]{codec: k.codec, index: k.index.clone()}
}

// EndBatch closes the pre-image generation of every mutation since the
// previous EndBatch under seq, arming the overlay (SnapshotReader).
func (k *Keyed[V]) EndBatch(seq uint64) {
	k.mu.Lock()
	k.overlay.close(seq)
	k.mu.Unlock()
}

// AdvanceDurable drops the generations at or below seq (SnapshotReader).
func (k *Keyed[V]) AdvanceDurable(seq uint64) {
	k.mu.Lock()
	k.overlay.advance(seq)
	k.mu.Unlock()
}

// ReadDurable returns key's value at the durable sequence number.
func (k *Keyed[V]) ReadDurable(key string) (V, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	if v, existed, pinned := k.overlay.resolve(key); pinned {
		return v, existed
	}
	return k.index.get(key)
}

// Range iterates, in key order, over the live entries whose key starts
// with prefix. The loop body may overwrite an entry (Set a key that is
// present) but must not add or Delete one: either shifts a leaf.
func (k *Keyed[V]) Range(prefix string) iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		for key, v := range k.index.from(prefix) {
			if !strings.HasPrefix(key, prefix) || !yield(key, v) {
				return
			}
		}
	}
}

// RangeDurable iterates, in key order, over the entries whose key starts
// with prefix at the durable sequence number, including entries deleted
// since. It holds the read lock, so the loop body must not call back into
// k.
func (k *Keyed[V]) RangeDurable(prefix string) iter.Seq2[string, V] {
	return func(yield func(string, V) bool) {
		k.mu.RLock()
		defer k.mu.RUnlock()
		pins := k.overlay.pins()
		var gone []string // deleted since, merged in below
		for key, p := range pins {
			if _, live := k.index.get(key); p.existed && !live && strings.HasPrefix(key, prefix) {
				gone = append(gone, key)
			}
		}
		slices.Sort(gone)
		for key, v := range k.Range(prefix) {
			for ; len(gone) > 0 && gone[0] < key; gone = gone[1:] {
				if !yield(gone[0], pins[gone[0]].val) {
					return
				}
			}
			if p, pinned := pins[key]; pinned {
				if !p.existed {
					continue
				}
				v = p.val
			}
			if !yield(key, v) {
				return
			}
		}
		for _, key := range gone {
			if !yield(key, pins[key].val) {
				return
			}
		}
	}
}

// PreImages returns the number of items whose pre-image a snapshot
// reader still needs.
func (k *Keyed[V]) PreImages() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.overlay.pins())
}

// Encode joins sections into one message: the snapshot or the delta of a
// service whose state is one or more Keyed maps.
func Encode(sections ...func(w *wire.Writer)) []byte {
	var w wire.Writer
	for _, section := range sections {
		section(&w)
	}
	return w.Bytes()
}

// Decode reads b as the sections, in order, and fails unless they
// consume it exactly; what prefixes the error.
func Decode(what string, b []byte, sections ...func(r *wire.Reader)) error {
	r := wire.NewReader(b)
	for _, section := range sections {
		section(r)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// Partition is Resharder.PartitionState over Keyed maps' Partition
// methods, for n ≥ 1: fragment j holds their sections for shard j.
func Partition(n int, sections ...func(ws []wire.Writer)) [][]byte {
	ws := make([]wire.Writer, n)
	for _, section := range sections {
		section(ws)
	}
	fragments := make([][]byte, n)
	for j := range ws {
		fragments[j] = ws[j].Bytes()
	}
	return fragments
}

// Merge is Resharder.MergeState over Keyed maps' Merge methods: each
// fragment is decoded as their sections, in order.
func Merge(what string, fragments [][]byte, sections ...func(r *wire.Reader)) error {
	for i, frag := range fragments {
		if err := Decode(fmt.Sprintf("%s: fragment %d", what, i), frag, sections...); err != nil {
			return err
		}
	}
	return nil
}

// overlay holds the pre-images that let a Keyed serve reads at the last
// durable sequence number while later batches have already executed.
// Per batch ("generation") it records the value each item had before the
// batch first touched it. An item's value at durable sequence S is the
// pre-image in the oldest pending generation that holds one (no earlier
// pending batch touched it), else the live value. The executing batch's
// generation is the newest, open one (seq open): it has already changed
// the live state. close ends it; advance(S) drops generations at or
// below S.
//
// A zero overlay is un-armed: record keeps nothing until the first close.
// The trusted context closes generations only once reads are armed, and
// the arming close finds every earlier write durable, so a service that
// serves no snapshot read holds no pre-image. Restore drops the
// generations but keeps the overlay armed: it may replace the state of
// an instance that serves reads.
type overlay[V any] struct {
	gens  []overlayGen[V] // oldest first; only the last may be open
	armed bool
}

type overlayGen[V any] struct {
	seq  uint64
	pres map[string]overlayPre[V]
}

type overlayPre[V any] struct {
	val     V
	existed bool
}

// open is the seq of the generation still recording.
const open = math.MaxUint64

// record notes key's pre-image in the open generation; the first record
// of a key in a generation wins.
func (o *overlay[V]) record(key string, val V, existed bool) {
	if !o.armed {
		return
	}
	if n := len(o.gens); n == 0 || o.gens[n-1].seq != open {
		o.gens = append(o.gens, overlayGen[V]{seq: open, pres: make(map[string]overlayPre[V])})
	}
	pres := o.gens[len(o.gens)-1].pres
	if _, done := pres[key]; !done {
		pres[key] = overlayPre[V]{val: val, existed: existed}
	}
}

// close ends the open generation, if any (an empty batch leaves none), at
// seq and arms the overlay.
func (o *overlay[V]) close(seq uint64) {
	o.armed = true
	if n := len(o.gens); n > 0 && o.gens[n-1].seq == open {
		o.gens[n-1].seq = seq
	}
}

func (o *overlay[V]) advance(seq uint64) {
	i := 0
	for i < len(o.gens) && o.gens[i].seq <= seq {
		i++
	}
	o.gens = append(o.gens[:0], o.gens[i:]...)
}

// resolve reports key's value at the durable snapshot: pinned is true
// when a pending generation holds its pre-image.
func (o *overlay[V]) resolve(key string) (val V, existed, pinned bool) {
	for _, g := range o.gens {
		if p, ok := g.pres[key]; ok {
			return p.val, p.existed, true
		}
	}
	return val, false, false
}

// pins returns the durable value of every item with a pending pre-image:
// the oldest generation's wins.
func (o *overlay[V]) pins() map[string]overlayPre[V] {
	m := make(map[string]overlayPre[V])
	for i := len(o.gens) - 1; i >= 0; i-- {
		maps.Copy(m, o.gens[i].pres)
	}
	return m
}
