package host

import (
	"errors"
	"fmt"

	"lcm/internal/core"
	"lcm/internal/stablestore"
)

// CopyStorage copies the persistence objects a chain-mode migration needs
// — the sealed state blob and its log segments — from one host's stable
// storage to another's. It is the host-side half of Sec. 4.6.2 when the
// origin and target do not share storage: the origin's host ships the
// files, the enclaves ship only kP, V and the chain head over the secure
// channel.
//
// The copy is untrusted, like everything the host does: every object is
// sealed under kP, and the target enclave folds the copied chain and
// refuses an import whose fold does not end exactly at the head the
// origin pinned in the handover. A truncated, stale or tampered copy is
// therefore rejected at import, never silently adopted — CopyStorage only
// needs to be correct for the migration to succeed, not for it to be
// safe.
//
// The key blob is deliberately not copied: it is sealed under the
// origin's platform key, useless to the target, which re-seals kP under
// its own platform after the import.
//
// Each destination segment is truncated first, so a retry after a
// partial copy cannot splice two copies together.
//
// The segments stream slot-by-slot in bounded chunks
// (stablestore.ScanLog): at no point is more than copyChunkRecords
// records or ~copyChunkBytes of log resident, so a multi-gigabyte chain
// copies in constant memory. Reshard staging (Server.Reshard) reuses
// this path to fan each source shard's chain out to every target's
// namespace.
func CopyStorage(src, dst stablestore.Store) error {
	blob, err := src.Load(core.SlotStateBlob)
	if errors.Is(err, stablestore.ErrNotFound) {
		return errors.New("host: copy storage: source has no sealed state")
	}
	if err != nil {
		return fmt.Errorf("host: copy storage: load state blob: %w", err)
	}
	seg, ok := core.BlobSegment(blob)
	if !ok {
		return errors.New("host: copy storage: state blob of unknown version")
	}
	if err := dst.Store(core.SlotStateBlob, blob); err != nil {
		return fmt.Errorf("host: copy storage: store state blob: %w", err)
	}
	for n := 1; n > 0; seg++ {
		slot := core.SegmentSlot(seg)
		if err := dst.TruncateLog(slot); err != nil {
			return fmt.Errorf("host: copy storage: truncate destination log: %w", err)
		}
		if n, err = copyLogStreaming(src, dst, slot); err != nil {
			return err
		}
	}
	return nil
}

// Chunking bounds for the streaming log copy: a chunk flushes to the
// destination once it covers this many records or roughly this many
// bytes, whichever comes first.
const (
	copyChunkRecords = 64
	copyChunkBytes   = 1 << 20
)

// copyLogStreaming appends src's log slot to dst's in bounded chunks and
// returns how many records it copied.
func copyLogStreaming(src, dst stablestore.Store, slot string) (int, error) {
	var (
		chunk      [][]byte
		chunkBytes int
	)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := dst.AppendGroup(slot, chunk); err != nil {
			return fmt.Errorf("host: copy storage: append delta log: %w", err)
		}
		chunk, chunkBytes = chunk[:0], 0
		return nil
	}
	n := 0
	err := stablestore.ScanLog(src, slot, func(record []byte) error {
		// ScanLog implementations may reuse nothing — records are fresh
		// copies — so the chunk can retain them directly.
		chunk = append(chunk, record)
		chunkBytes += len(record)
		n++
		if len(chunk) >= copyChunkRecords || chunkBytes >= copyChunkBytes {
			return flush()
		}
		return nil
	})
	if err != nil {
		return n, fmt.Errorf("host: copy storage: scan delta log: %w", err)
	}
	return n, flush()
}
