package host

import "time"

// Adaptive commit-group sizing. The committer used to cap groups at a
// fixed 64 results; that number is either too small (a fast disk could
// amortize far more batches per fsync) or too large (a slow disk turns a
// full group into multi-hundred-millisecond reply latency). Instead the
// cap now tracks Config.CommitLatencyTarget with an AIMD policy: the
// extra latency group commit adds to a reply is bounded by roughly one
// group's persistence time, so that is the quantity the policy steers.
const (
	// DefaultCommitLatencyTarget is the commit-group latency target when
	// Config.GroupCommit is on and Config.CommitLatencyTarget is 0.
	DefaultCommitLatencyTarget = 10 * time.Millisecond

	// commitGroupFloor and commitGroupCeiling bound the adaptive cap.
	// The ceiling is a burst backstop and the committer queue's bound, not
	// a tuning knob: a burst can never defer durability — and replies —
	// indefinitely.
	commitGroupFloor   = 1
	commitGroupCeiling = 1024

	// commitGroupInitial is where the cap starts before any observation.
	commitGroupInitial = 16
)

// groupPolicy decides how many queued batch results the committer drains
// into one commit group. Only the goroutine currently committing uses it
// (committer.running); no internal locking. The policy is deterministic —
// observe() is a pure function of the current cap and the measured group —
// so it unit-tests without a clock.
type groupPolicy struct {
	target time.Duration
	limit  int
}

func newGroupPolicy(target time.Duration) *groupPolicy {
	if target <= 0 {
		target = DefaultCommitLatencyTarget
	}
	return &groupPolicy{target: target, limit: commitGroupInitial}
}

// size returns the current group cap.
func (p *groupPolicy) size() int { return p.limit }

// observe feeds back one committed group: n results made durable in d.
// AIMD: a group that overran the target halves the cap (multiplicative
// decrease — persistence time generally grows with group size, so back
// off fast); a group that filled the cap and still finished within half
// the target grows it by one (additive increase — only saturated groups
// count, an undersized group finishing early says nothing about the cap).
func (p *groupPolicy) observe(n int, d time.Duration) {
	switch {
	case d > p.target:
		p.limit /= 2
		if p.limit < commitGroupFloor {
			p.limit = commitGroupFloor
		}
	case n >= p.limit && 2*d <= p.target && p.limit < commitGroupCeiling:
		p.limit++
	}
}
