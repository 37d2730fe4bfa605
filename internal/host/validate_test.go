package host

import (
	"strings"
	"testing"
	"time"

	"lcm/internal/core"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// validConfig returns the minimal configuration Validate accepts; each
// test case perturbs one field.
func validConfig(t *testing.T) Config {
	t.Helper()
	plat, err := tee.NewPlatform("validate-test")
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return Config{
		Platform: plat,
		Factory:  func() tee.Program { return nil },
		Store:    stablestore.NewMemStore(),
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"nil platform", func(c *Config) { c.Platform = nil }, "Platform is required"},
		{"nil factory", func(c *Config) { c.Factory = nil }, "Factory is required"},
		{"nil store", func(c *Config) { c.Store = nil }, "Store is required"},
		{"negative shards", func(c *Config) { c.Shards = -1 }, "Shards must be"},
		{"too many shards", func(c *Config) { c.Shards = wire.MaxShards + 1 }, "routing limit"},
		{"negative batch", func(c *Config) { c.BatchSize = -2 }, "BatchSize must be"},
		{"negative replicas", func(c *Config) { c.Replicas = -1 }, "Replicas must be"},
		{"quorum without replication", func(c *Config) { c.Quorum = 2 }, "without replication"},
		{"negative quorum", func(c *Config) { c.Replicas = 2; c.Quorum = -1 }, "Quorum must be"},
		{"quorum exceeds replica set", func(c *Config) { c.Replicas = 2; c.Quorum = 4 }, "exceeds the replica set size 3"},
		{"negative latency target", func(c *Config) { c.CommitLatencyTarget = -time.Millisecond }, "CommitLatencyTarget must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig(t)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted config, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Validate error = %q, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestConfigValidateDefaults(t *testing.T) {
	cfg := validConfig(t)
	cfg.Replicas = 4
	cfg.SnapshotReads = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if cfg.Shards != 1 {
		t.Errorf("Shards = %d, want 1", cfg.Shards)
	}
	if cfg.BatchSize != 1 {
		t.Errorf("BatchSize = %d, want 1", cfg.BatchSize)
	}
	if cfg.StateSlot != core.SlotStateBlob {
		t.Errorf("StateSlot = %q, want %q", cfg.StateSlot, core.SlotStateBlob)
	}
	// Majority of a 5-member replica set (primary + 4 peers) is 3.
	if cfg.Quorum != 3 {
		t.Errorf("Quorum = %d, want 3", cfg.Quorum)
	}
	if cfg.CommitLatencyTarget != DefaultCommitLatencyTarget {
		t.Errorf("CommitLatencyTarget = %v, want %v", cfg.CommitLatencyTarget, DefaultCommitLatencyTarget)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := validConfig(t)
	cfg.Quorum = 2 // without Replicas
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "without replication") {
		t.Fatalf("New error = %v, want quorum-without-replication rejection", err)
	}
}
