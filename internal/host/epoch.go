package host

import (
	"errors"
	"fmt"

	"lcm/internal/core"
)

// Membership epochs and client churn (host side).
//
// The trusted context's epoch-seal protocol (core.Trusted.handleEpochSeal)
// is tick-driven by the host, exactly like the heartbeat beacon: every
// Config.EpochInterval the instance's tick loop (see beacon.go) asks the
// enclave to seal a membership epoch — batching staged evictions and
// rotating kC when any fire.
// The seal's result carries a sealed record (or a full state blob) that
// must be durable before anything else touches the chain: an epoch seal
// routed through a non-persisting path would leave the enclave's chain
// head ahead of the disk, and the next restart would halt on a phantom
// rollback. Both the tick loop and the generic ecall paths therefore
// funnel epoch seals through epochSealLocked, which commits the result
// through the committer and waits for it.
//
// Churn frames (wire.FrameChurn) do the same: one churn ecall per frame,
// behind the persistence barrier, with the sealed membership change
// committed before the ack is released — the contract batches honour for
// replies.

// sealLocked performs one sealing ecall whose result carries no client
// replies (beacon, epoch seal, churn) and hands the result to the
// committer, waiting for its commit when wait is set. The caller holds
// inst.pm.
func (s *Server) sealLocked(inst *instance, payload []byte, wait bool) ([]byte, *core.BatchResult, error) {
	epoch := inst.enclave.Epoch()
	resp, err := inst.enclave.Call(payload)
	if err != nil {
		return nil, nil, err
	}
	result, err := core.DecodeBatchResult(resp)
	if err != nil {
		return nil, nil, errors.New("host: malformed enclave response")
	}
	return resp, result, s.commitLocked(inst, nil, result, epoch, wait)
}

// epochSealLocked performs the epoch-seal ecall and waits for the
// committer to make its sealed output durable. The caller holds inst.pm
// with the committer flushed, so the record chains directly onto the
// acknowledged history.
func (s *Server) epochSealLocked(inst *instance) ([]byte, error) {
	resp, _, err := s.sealLocked(inst, core.EncodeEpochSealCall(), true)
	if err != nil {
		return nil, fmt.Errorf("host: epoch seal: %w", err)
	}
	return resp, nil
}

// churnECall performs one churn ecall (a single sealed membership
// message) behind the persistence barrier, waits for the committer to
// make its result durable and returns the sealed ack — nil for
// heartbeats, which the enclave deliberately leaves unanswered.
func (s *Server) churnECall(inst *instance, msg []byte) ([]byte, error) {
	inst.pm.Lock()
	defer inst.pm.Unlock()
	s.healLocked(inst)
	inst.cm.flush()
	_, result, err := s.sealLocked(inst, core.EncodeChurnCall([][]byte{msg}), true)
	if err != nil {
		return nil, fmt.Errorf("host: churn: %w", err)
	}
	if len(result.Replies) != 1 {
		return nil, errors.New("host: malformed churn response")
	}
	return result.Replies[0], nil
}
