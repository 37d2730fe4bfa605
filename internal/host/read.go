package host

import (
	"errors"

	"lcm/internal/core"
	"lcm/internal/wire"
)

// The host side of the snapshot-read path (core/read.go). Reads bypass
// everything the write path serializes on: they never enter the batch
// queue, never take the persistence barrier, and execute concurrently
// inside the enclave via tee.Enclave.ReadCall. Each read runs on the
// goroutine of the connection it arrived on; the protocol allows one
// outstanding operation per client (Sec. 4.1), so a slow read holds up
// only its own connection, and reads from different connections run in
// parallel without a hand-off to a worker.

// errSnapshotReadsDisabled answers FrameReadInvoke when the deployment
// was configured without Config.SnapshotReads.
var errSnapshotReadsDisabled = errors.New("host: snapshot reads disabled; set Config.SnapshotReads")

// snapshotRead executes one snapshot read against the instance's enclave
// and returns the response frame. A fresh enclave epoch (restart, heal,
// rollback attack) starts un-armed; the first read to notice re-arms it
// through the persistence barrier — the barrier flushes the committer
// first, so everything executed at arm time is durable and the current
// state is a valid first snapshot.
func (s *Server) snapshotRead(inst *instance, invoke []byte) []byte {
	resp, err := inst.enclave.ReadCall(invoke)
	if err != nil && errors.Is(err, core.ErrReadsNotEnabled) {
		if _, armErr := s.instanceBarrierECall(inst, core.EncodeEnableReadsCall()); armErr != nil {
			err = armErr
		} else {
			resp, err = inst.enclave.ReadCall(invoke)
		}
	}
	if err != nil {
		return wire.ErrorFrame(err)
	}
	return wire.OKFrame(resp)
}

// advanceDurable confirms to the enclave that every batch up to seq has
// hit stable storage, unblocking snapshot reads of that prefix. Called
// after the covering write returns and BEFORE the covered replies are
// released — that ordering is what gives read-your-writes (a client
// holding its reply for sequence t always reads a snapshot ≥ t). Errors
// are deliberately ignored: the advance can only fail against a halted,
// stopped or restarted enclave, and in each of those cases the read path
// either fails outright or re-folds a durable state that already covers
// seq.
func (s *Server) advanceDurable(inst *instance, seq uint64) {
	if !s.cfg.SnapshotReads {
		return
	}
	_, _ = inst.enclave.Call(core.EncodeAdvanceDurableCall(seq))
}
