package host

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

// fakeClock is a hand-driven Server.newTicker: its tickers deliver a tick
// only when the test calls fire, over an unbuffered channel, so fire
// returns once the tick loop has taken the tick — and the next fire once
// the loop has finished the previous tick's work.
type fakeClock struct {
	mu      sync.Mutex
	tickers map[time.Duration][]*fakeTicker
	added   chan struct{} // closed and replaced on every newTicker
}

type fakeTicker struct {
	c       chan time.Time
	stopped chan struct{}
}

func newFakeClock() *fakeClock {
	return &fakeClock{tickers: make(map[time.Duration][]*fakeTicker), added: make(chan struct{})}
}

func (f *fakeClock) newTicker(d time.Duration) (<-chan time.Time, func()) {
	tk := &fakeTicker{c: make(chan time.Time), stopped: make(chan struct{})}
	f.mu.Lock()
	f.tickers[d] = append(f.tickers[d], tk)
	close(f.added)
	f.added = make(chan struct{})
	f.mu.Unlock()
	var once sync.Once
	return tk.c, func() { once.Do(func() { close(tk.stopped) }) }
}

// ticker returns the i-th ticker armed for interval d, waiting for the
// tick loop to arm it.
func (f *fakeClock) ticker(t *testing.T, d time.Duration, i int) *fakeTicker {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		f.mu.Lock()
		ts, added := f.tickers[d], f.added
		f.mu.Unlock()
		if i < len(ts) {
			return ts[i]
		}
		select {
		case <-added:
		case <-deadline:
			t.Fatalf("no ticker %d armed for %v", i, d)
		}
	}
}

// armed counts the tickers ever armed for interval d.
func (f *fakeClock) armed(d time.Duration) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.tickers[d])
}

// fire delivers one tick on the i-th ticker of interval d.
func (f *fakeClock) fire(t *testing.T, d time.Duration, i int) {
	t.Helper()
	tk := f.ticker(t, d, i)
	select {
	case tk.c <- time.Now():
	case <-tk.stopped:
		t.Fatalf("ticker %d for %v stopped before its tick", i, d)
	case <-time.After(5 * time.Second):
		t.Fatalf("tick loop never took the %v tick", d)
	}
}

// tickLoops counts the goroutines currently running a tick loop.
func tickLoops() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "(*Server).tickLoop(")
}

// One tick loop per instance drives both periodic trusted calls: with the
// beacon and the epoch interval armed, a beacon tick and an epoch tick
// each commit a sealed record that survives a restart, and the loop exits
// once the enclave halts. Both commit modes run the same schedule.
func TestTickLoopBeaconAndEpoch(t *testing.T) {
	const beaconEvery, epochEvery = time.Hour, 2 * time.Hour
	for _, groupCommit := range []bool{false, true} {
		t.Run(fmt.Sprintf("groupcommit=%v", groupCommit), func(t *testing.T) {
			attestation := tee.NewAttestationService()
			platform, err := tee.NewPlatform("plat-tick")
			if err != nil {
				t.Fatal(err)
			}
			attestation.Register(platform)
			clock := newFakeClock()
			server, err := newServer(Config{
				Platform: platform,
				Factory: core.NewTrustedFactory(core.TrustedConfig{
					ServiceName: "kvs",
					NewService:  kvs.Factory(),
					Attestation: attestation,
				}),
				Store:          stablestore.NewMemStore(),
				GroupCommit:    groupCommit,
				BeaconInterval: beaconEvery,
				EpochInterval:  epochEvery,
			}, clock.newTicker)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(server.Shutdown)
			admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
			if err := admin.Bootstrap(server.ECall, []uint32{1}); err != nil {
				t.Fatal(err)
			}

			beacon, epoch := clock.ticker(t, beaconEvery, 0), clock.ticker(t, epochEvery, 0)
			if n := tickLoops(); n != 1 {
				t.Fatalf("%d tick loops for one instance, want 1", n)
			}
			before, err := core.QueryStatus(server.ECall)
			if err != nil {
				t.Fatal(err)
			}
			clock.fire(t, beaconEvery, 0)
			clock.fire(t, epochEvery, 0)
			// fire returns once the loop took the tick; the seals show in the
			// status once their ecalls released the persist lock, which the
			// status ecall takes — so by then both are committed.
			var after *core.Status
			for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
				if after, err = core.QueryStatus(server.ECall); err != nil {
					t.Fatal(err)
				}
				if after.BeaconSeq == before.BeaconSeq+1 && after.GroupEpoch == before.GroupEpoch+1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("after ticks: beacon %d→%d, group epoch %d→%d; want +1 each",
						before.BeaconSeq, after.BeaconSeq, before.GroupEpoch, after.GroupEpoch)
				}
			}
			// Both records are durable: a restart folds them back.
			if err := server.Enclave(0).Restart(); err != nil {
				t.Fatal(err)
			}
			recovered, err := core.QueryStatus(server.ECall)
			if err != nil {
				t.Fatal(err)
			}
			if recovered.BeaconSeq != after.BeaconSeq || recovered.GroupEpoch != after.GroupEpoch {
				t.Fatalf("after restart: beacon %d, group epoch %d; want %d, %d",
					recovered.BeaconSeq, recovered.GroupEpoch, after.BeaconSeq, after.GroupEpoch)
			}
			if clock.armed(beaconEvery) != 1 || clock.armed(epochEvery) != 1 {
				t.Fatalf("tickers armed: beacon %d, epoch %d; want one each",
					clock.armed(beaconEvery), clock.armed(epochEvery))
			}

			// Halt the enclave; the next tick ends the loop, which stops
			// both of its tickers on the way out.
			if err := server.AttackReplay(0, []byte("not an invoke")); err == nil {
				t.Fatal("garbage invoke did not halt the enclave")
			}
			clock.fire(t, beaconEvery, 0)
			for _, tk := range []*fakeTicker{beacon, epoch} {
				select {
				case <-tk.stopped:
				case <-time.After(5 * time.Second):
					t.Fatal("tick loop kept running after the halt")
				}
			}
		})
	}
}
