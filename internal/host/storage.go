package host

import (
	"errors"
	"fmt"

	"lcm/internal/core"
	"lcm/internal/stablestore"
)

// CopyStorage copies the persistence objects a reshard target folds — the
// sealed state blob and its log segments — from one store to another: the
// staging step of Server.Reshard and Server.MigrateTo (which stages into
// another server's store), and an admin recovery's shipped storage. The
// enclaves ship only kP, the chain head and the pending delta over the
// secure channel.
//
// The copy is untrusted, like everything the host does: every object is
// sealed under kP, and a reshard target folds the copied chain and refuses
// an import whose fold does not end exactly at the head its source pinned
// in the sealed piece. A truncated, stale or tampered copy is therefore
// rejected at import, never silently adopted — CopyStorage only needs to
// be correct for the move to succeed, not for it to be safe.
//
// The key blob is deliberately not copied: it is sealed under the source
// platform's key, and a target seals its own.
//
// Each destination segment is truncated first, so a retry after a
// partial copy cannot splice two copies together.
//
// The segments stream slot-by-slot in bounded chunks
// (stablestore.ScanLog): at no point is more than copyChunkRecords
// records or ~copyChunkBytes of log resident, so a multi-gigabyte chain
// copies in constant memory; reshard staging fans each source shard's
// chain out to every target's namespace this way.
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
