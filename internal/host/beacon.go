package host

import (
	"errors"
	"slices"
	"time"

	"lcm/internal/core"
	"lcm/internal/tee"
)

// Periodic trusted calls and chain-heartbeat beacons (host side).
//
// Each enclave instance runs one tick loop for its periodic trusted
// calls: the heartbeat beacon every Config.BeaconInterval and the
// membership epoch seal every Config.EpochInterval (see epoch.go). The
// trusted context's beacon protocol (core.Trusted.handleBeacon) is
// tick-driven by the host: every beacon tick asks the enclave to commit
// one beacon record and hands it to the committer like any batch result —
// the committer coalesces it with in-flight batch records, so a beacon
// costs at most one extra record in an append that was happening anyway —
// and, strictly after the record is durable, the committer issues the
// confirm ecall that claims the reserved platform counter tick. Running
// the loop per instance is the point: a cloned or forked instance beacons
// too, and two instances beaconing against one counter is exactly the
// collision the protocol detects.

// realTicker is the wall-clock ticker constructor (Server.newTicker).
func realTicker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// tick arms a ticker for a positive interval; a zero interval yields a nil
// channel, which never fires in a select.
func (s *Server) tick(d time.Duration) (<-chan time.Time, func()) {
	if d <= 0 {
		return nil, func() {}
	}
	return s.newTicker(d)
}

// tickLoop drives one instance's beacons and epoch seals until the server
// stops, the instance's enclave terminally leaves the serving state (halt,
// reshard or migration), or a failing tick finds the instance replaced (a
// migration's destination stops its unprovisioned enclaves). On a halt it
// also drops any route override pointing at this instance, so subsequently accepted connections reach
// the shard's surviving primary instead of a dead clone — attack arms
// stay composable after detection fires.
func (s *Server) tickLoop(inst *instance) {
	beacon, stopBeacon := s.tick(s.cfg.BeaconInterval)
	defer stopBeacon()
	epoch, stopEpoch := s.tick(s.cfg.EpochInterval)
	defer stopEpoch()
	for {
		var err error
		select {
		case <-beacon:
			err = s.beaconOnce(inst)
		case <-epoch:
			_, err = s.instanceBarrierECall(inst, core.EncodeEpochSealCall())
		case <-s.stop:
			return
		}
		switch {
		case err == nil:
		case errors.Is(err, tee.ErrEnclaveHalted):
			s.clearOverridesTo(inst)
			return
		case errors.Is(err, core.ErrReshardedAway):
			return
		case !s.registered(inst):
			return
		default:
			// Transient refusals (not yet provisioned, frozen mid-reshard,
			// enclave momentarily stopped for a restart, a lost write the
			// committer already restarted for): keep ticking.
		}
	}
}

// beaconOnce performs one beacon round: the reserve ecall behind the
// persistence barrier, then the hand-off of its record to the committer,
// which confirms the beacon after the record is durable. Without
// GroupCommit the round waits for that commit; with it, the round commits
// inline once the persist lock is dropped, unless a commit is running.
func (s *Server) beaconOnce(inst *instance) error {
	defer inst.cm.kick()
	inst.pm.Lock()
	defer inst.pm.Unlock()
	s.healLocked(inst)
	_, _, err := s.sealLocked(inst, core.EncodeBeaconCall(), !s.cfg.GroupCommit)
	return err
}

// confirmBeacons issues the beacon-confirm ecall for every just-durable
// result in the group that carries a beacon. The reserve/confirm protocol
// requires the counter increment strictly after durability — a crash in
// between leaves the counter one tick behind, which the next reserve
// tolerates, whereas confirming early would let a crash roll the chain
// back behind a confirmed increment and trip a false ErrCloneDetected.
// Errors are ignored: a halt here is the detection itself (surfaced
// through the enclave's HaltedErr and every subsequent call), and a "no
// beacon awaiting confirmation" refusal just means the enclave restarted
// in between, leaving the counter in the tolerated lag state.
func (c *committer) confirmBeacons(group []commitReq) {
	for _, r := range group {
		if r.result != nil && r.result.Beacon {
			_, _ = c.inst.enclave.Call(core.EncodeBeaconConfirmCall())
		}
	}
}

// clearOverridesTo drops every route override pointing at the given
// instance. Caller must NOT hold s.mu.
func (s *Server) clearOverridesTo(inst *instance) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for shard, idx := range s.routeOverride {
		if idx >= 0 && idx < len(s.instances) && s.instances[idx] == inst {
			delete(s.routeOverride, shard)
		}
	}
}

// registered reports whether inst is still one of the server's instances.
func (s *Server) registered(inst *instance) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Contains(s.instances, inst)
}
