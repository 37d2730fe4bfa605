package host

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"lcm/internal/client"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
)

// namespaceFiles lists the files in dir whose names fall under the given
// slot-namespace prefix (FileStore sanitizes "/" to "_" in file names).
func namespaceFiles(t *testing.T, dir, prefix string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	safe := strings.ReplaceAll(prefix+"/", "/", "_")
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), safe) {
			out = append(out, e.Name())
		}
	}
	return out
}

// Reshard GC over real files: once every registered client has adopted
// the new generation, the retired generation's namespaces — including
// the replica mirrors — and the new generation's staging copies are
// actually deleted from disk, while the live generation's state and the
// handoff bundles survive.
func TestReshardGCReclaimsRetiredGenerations(t *testing.T) {
	const oldShards, newShards = 2, 3
	dir := t.TempDir()
	store, err := stablestore.NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint32{1, 2}
	st := newReplicatedStack(t, store, oldShards, ids, true, 2, 2)

	sessions := make(map[uint32]*client.ShardedSession)
	for _, id := range ids {
		sess := st.session(id)
		for i := 0; i < 3; i++ {
			if _, err := sess.Do(kvs.Put(keyOnShard(int(id)%oldShards, oldShards, "k"), "v")); err != nil {
				t.Fatal(err)
			}
		}
		sessions[id] = sess
	}
	// The old generation (and its replica mirrors) is on disk.
	for j := 0; j < oldShards; j++ {
		if len(namespaceFiles(t, dir, shardPrefix(j))) == 0 {
			t.Fatalf("no files under retired-to-be namespace shard%d", j)
		}
	}

	if _, err := st.server.Reshard(newShards, nil); err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	// Staging copies exist until the whole group adopts.
	if len(namespaceFiles(t, dir, "gen1/shard0/src0")) == 0 {
		t.Fatal("no staged source copies under the new generation")
	}

	// Client 1 adopts (and acks): not the whole group yet, nothing may be
	// reclaimed.
	next1, _, err := refreshUntilAdopted(st, sessions[1])
	if err != nil {
		t.Fatalf("client 1 refresh: %v", err)
	}
	sessions[1] = next1
	if len(namespaceFiles(t, dir, shardPrefix(0))) == 0 {
		t.Fatal("old generation reclaimed before every client adopted")
	}

	// Client 2 adopts: the group is complete, the ack triggers the GC
	// synchronously before it is answered.
	next2, _, err := refreshUntilAdopted(st, sessions[2])
	if err != nil {
		t.Fatalf("client 2 refresh: %v", err)
	}
	sessions[2] = next2

	// The retired generation's files — state, delta logs and replica
	// mirrors alike — are gone from disk.
	for j := 0; j < oldShards; j++ {
		if files := namespaceFiles(t, dir, shardPrefix(j)); len(files) != 0 {
			t.Fatalf("retired namespace shard%d still holds %v", j, files)
		}
	}
	// So are the staging copies the imports verified.
	for j := 0; j < newShards; j++ {
		for i := 0; i < oldShards; i++ {
			prefix := stablestore.NamespacedSlot(genShardPrefix(1, j), fmt.Sprintf("src%d", i))
			if files := namespaceFiles(t, dir, prefix); len(files) != 0 {
				t.Fatalf("staging %s still holds %v", prefix, files)
			}
		}
	}
	// The live generation's state survives and keeps serving.
	for j := 0; j < newShards; j++ {
		if len(namespaceFiles(t, dir, genShardPrefix(1, j))) == 0 {
			t.Fatalf("live namespace %s has no files", genShardPrefix(1, j))
		}
	}
	if _, err := sessions[1].Do(kvs.Put("after-gc", "v")); err != nil {
		t.Fatalf("write after GC: %v", err)
	}
	// The handoff bundle is retained — late clients still walk the
	// boundary even though the old chain's storage is gone.
	late := st.session(2)
	if _, err := late.FetchReshardInfo(); err != nil {
		t.Fatalf("reshard info after GC: %v", err)
	}
}
