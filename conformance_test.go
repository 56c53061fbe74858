package fuzzyknn_test

import (
	"fmt"
	"testing"

	"fuzzyknn"
	. "fuzzyknn/internal/conform"
)

// FuzzConformance is the one statement of the paper's contract (see
// internal/conform): every read family answers exactly what a scan of the
// live objects answers, in every deployment shape — in memory, log-backed,
// static and paged, replicated, and served over HTTP — after any history
// of mutations, refusals, restarts and storage faults. The seeds below are
// the time-boxed run; a nightly fuzz run shrinks any failure to a corpus
// file that replays it.
func FuzzConformance(f *testing.F) {
	for _, seed := range conformanceSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { conform(t, data, 1, 4) })
}

// conform runs one history against the model and every shape of the given
// shard counts, paged ones and tree checks included.
func conform(t *testing.T, data []byte, shards ...int) {
	Run(t, data, Shapes{Shards: shards, OpenPagedTiny: fuzzyknn.OpenPagedTiny, CheckInvariants: fuzzyknn.CheckInvariants})
}

// The tests below replay, through the same checker, histories aimed at
// one contract each.

// TestPublicShardedMatchesSingle: 4-shard shapes answer what single trees
// and the scan do, at the single tree's cost, through inserts, batches and
// deletes.
func TestPublicShardedMatchesSingle(t *testing.T) {
	conform(t, []byte{0, 24, OpQuery, 11, OpInsert, 3, OpBatch, 17, OpDelete, 5, OpQuery, 12}, 1, 4)
}

// TestPublicShardedLogIndex: sharded log shapes, reopened plain, after a
// checkpoint and after a compacting one, keep answering what the scan does.
func TestPublicShardedLogIndex(t *testing.T) {
	conform(t, []byte{2, 20, OpCheckpoint, 0, OpQuery, 3, OpBatch, 11, OpCheckpoint, 1, OpDelete, 2, OpCheckpoint, 2, OpQuery, 4}, 1, 4)
}

// TestCheckpointQueryEquivalence: at each shard count alone, a log index
// checkpointed, compacted and reopened between mutations answers every
// family like the in-memory index and the scan.
func TestCheckpointQueryEquivalence(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards-%d", n), func(t *testing.T) {
			conform(t, []byte{0, 20, OpBatch, 9, OpCheckpoint, 1, OpQuery, 2, OpInsert, 1, OpCheckpoint, 2, OpQuery, 3, OpDelete, 3, OpCheckpoint, 0, OpQuery, 4}, n)
		})
	}
}

// TestPublicPagedMatchesMemory: paged shapes behind a three-page cache
// answer byte for byte like the static index they were saved from, on
// continuous objects and on the tie lattice.
func TestPublicPagedMatchesMemory(t *testing.T) {
	conform(t, []byte{0, 29, OpQuery, 20, OpQuery, 21}, 1, 4)
	conform(t, []byte{1, 29, OpQuery, 22}, 1, 4)
}

// TestPublicDiskIndexMatchesMemory: static indexes over a store file,
// behind an object LRU, answer what the in-memory ones and the scan do.
func TestPublicDiskIndexMatchesMemory(t *testing.T) {
	conform(t, []byte{6, 25, OpQuery, 30, OpQuery, 31}, 1, 4)
}

// TestDynamicIndexMatchesRebuilt: indexes mutated by inserts, deletes and
// batches answer what indexes built from scratch over the same objects do.
func TestDynamicIndexMatchesRebuilt(t *testing.T) {
	conform(t, []byte{4, 10, OpInsert, 3, OpInsert, 2, OpDelete, 1, OpBatch, 20, OpDelete, 6, OpQuery, 5}, 1, 4)
}

// TestPublicDeterministicAcrossConfigs: on the tie lattice, STR and
// incremental builds at every shard count break every tie alike.
func TestPublicDeterministicAcrossConfigs(t *testing.T) {
	conform(t, []byte{3, 25, OpQuery, 40, OpBatch, 7, OpQuery, 41}, 1, 4)
}

// TestBatchMatchesSequentialPublic: histories that mix ApplyBatch with
// single inserts and deletes leave every shape equal to the model.
func TestBatchMatchesSequentialPublic(t *testing.T) {
	conform(t, []byte{2, 0, OpBatch, 5, OpInsert, 3, OpBatch, 23, OpInsert, 2, OpBatch, 17, OpQuery, 6, OpBatch, 22, OpDelete, 4, OpQuery, 7}, 1, 4)
}

// TestFollowerMatchesLeaderAcrossQueries: followers at one and four shards
// of single and sharded leaders answer every family as the model does
// after batches, deletes, single inserts and mixed batches.
func TestFollowerMatchesLeaderAcrossQueries(t *testing.T) {
	h := []byte{0, 20, OpQuery, 1, OpBatch, 5, OpDelete, 3, OpDelete, 7, OpInsert, 0, OpBatch, 20, OpQuery, 2}
	t.Run("single-single", func(t *testing.T) { conform(t, h, 1) })
	t.Run("sharded-sharded", func(t *testing.T) { conform(t, h, 4) })
	t.Run("single-sharded", func(t *testing.T) { conform(t, h, 1, 4) })
}

// TestFollowerCatchUpAtEveryFrameBoundary: a follower stepped through a
// dozen frames holds the leader's population at every boundary.
func TestFollowerCatchUpAtEveryFrameBoundary(t *testing.T) {
	conform(t, []byte{2, 12, OpInsert, 0, OpDelete, 1, OpBatch, 7, OpInsert, 3, OpDelete, 4, OpBatch, 13, OpDelete, 0, OpInsert, 1, OpBatch, 8, OpQuery, 3}, 1)
}

// TestFollowerRebootstrapAfterTruncation: followers parked behind a
// two-frame window, or behind a restarted leader, re-bootstrap from its
// snapshot and converge, re-issued ids carrying new objects included.
func TestFollowerRebootstrapAfterTruncation(t *testing.T) {
	conform(t, []byte{4, 12, OpQuery, 0, OpDelete, 2, OpDelete, 3, OpInsert, 3, OpInsert, 3, OpQuery, 1, OpRestart, 0, OpInsert, 2, OpQuery, 2}, 1, 4)
}

// TestNoFrameOnFailedMutation: duplicate, dead, never-issued, repeated and
// malformed writes are refused whole on every shape and reach no
// follower; the committed ones that follow append one frame each.
func TestNoFrameOnFailedMutation(t *testing.T) {
	conform(t, []byte{0, 8, OpRefuse, 0, OpRefuse, 1, OpDelete, 0, OpRefuse, 6, OpRefuse, 2, OpRefuse, 8, OpRefuse, 9, OpInsert, 0, OpQuery, 0}, 1, 4)
}

// TestDegradedLeaderCutsNoSnapshot: a 2-shard log leader whose batch fails
// one shard's fsync holds part of a batch no frame names, so it bootstraps
// no new follower, while the followers it already had keep the population
// from before the batch.
func TestDegradedLeaderCutsNoSnapshot(t *testing.T) {
	conform(t, []byte{0, 24, OpFailStop, 1, OpQuery, 0}, 2)
}

// TestSingleMutationIsOneItemBatch: Insert and Delete answer what a
// one-item ApplyBatch does, at the same cost, on every mutable shape, a
// fail-stopped log included; read-only shapes refuse both alike.
func TestSingleMutationIsOneItemBatch(t *testing.T) {
	for i, store := range []string{"mem", "log", "static"} {
		for _, shards := range []int{1, 3} {
			for r, replication := range []string{"false", "true"} {
				h := []byte{byte(2*i + r), 6, OpRefuse, 0, OpRefuse, 10, OpRefuse, 2, OpRefuse, 3, OpDelete, 1, OpRefuse, 1, OpRefuse, 11}
				switch store {
				case "log":
					h = append(h, OpFailStop, byte(16*i+r), OpRefuse, 5)
				case "static":
					h = append(h, OpQuery, byte(i))
				}
				t.Run(fmt.Sprintf("%s/shards=%d/replication=%s", store, shards, replication), func(t *testing.T) { conform(t, h, shards) })
			}
		}
	}
}

// TestApplyBatchPublicAPI: batches commit whole, refused ones name every
// offending position, and log shapes under either fsync policy survive
// reopens, at one and four shards.
func TestApplyBatchPublicAPI(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for i, name := range []string{"always", "batch", "off"} {
			t.Run(fmt.Sprintf("shards=%d/fsync=%s", shards, name), func(t *testing.T) {
				conform(t, []byte{byte(2 * i), 0, OpBatch, 23, OpBatch, 15, OpRefuse, 135, OpRefuse, 136, OpRefuse, 139, OpBatch, 24, OpCheckpoint, 0, OpQuery, 5}, shards)
			})
		}
	}
}

// TestJoinsOnReplicationLeader: self-joins on replication leaders, whose
// recorder wraps the trees on both sides, and a leader joined with another
// shape answer what the scan does.
func TestJoinsOnReplicationLeader(t *testing.T) {
	conform(t, []byte{1, 24, OpQuery, 50, OpBatch, 9, OpQuery, 51}, 1, 4)
}

// TestOpenLogIndexLifecycle: log shapes created, mutated, queried and
// reopened keep every mutation, and take back a deleted id after a reopen.
func TestOpenLogIndexLifecycle(t *testing.T) {
	conform(t, []byte{0, 0, OpInsert, 3, OpInsert, 3, OpInsert, 1, OpDelete, 3, OpQuery, 6, OpCheckpoint, 0, OpQuery, 7, OpInsert, 3, OpInsert, 3, OpQuery, 8}, 1)
}

// TestReadOnlyIndexRejectsMutations: static and paged shapes refuse Insert,
// Delete and one-item batches as read-only.
func TestReadOnlyIndexRejectsMutations(t *testing.T) {
	conform(t, []byte{0, 2, OpQuery, 9}, 1, 4)
}

// TestMutableIndexKeepsPaperAccounting: on every mutable shape an insert
// charges no object access and a delete exactly one.
func TestMutableIndexKeepsPaperAccounting(t *testing.T) {
	conform(t, []byte{0, 2, OpInsert, 0, OpDelete, 2, OpBatch, 21, OpDelete, 0}, 1, 4)
}

// TestPublicAKNNEndToEnd: every AKNN algorithm, refined, answers what the
// linear scan does, each read timed and its object accesses counted.
func TestPublicAKNNEndToEnd(t *testing.T) {
	conform(t, []byte{0, 29, OpQuery, 70, OpQuery, 71}, 1)
}

// TestPublicRKNNConsistency: the four RKNN algorithms answer alike.
func TestPublicRKNNConsistency(t *testing.T) {
	conform(t, []byte{2, 25, OpQuery, 72, OpQuery, 73}, 1)
}

// TestPublicRangeSearch: range search answers the objects within the
// radius at their exact distances, the boundary included.
func TestPublicRangeSearch(t *testing.T) {
	conform(t, []byte{1, 26, OpQuery, 60, OpQuery, 61}, 1)
}

// TestPublicSelfJoin: a self-join names each pair once, left id first.
func TestPublicSelfJoin(t *testing.T) {
	conform(t, []byte{0, 26, OpQuery, 62}, 1)
}

// TestPublicReverseKNN: reverse kNN answers exactly the objects that have
// the query among their k nearest.
func TestPublicReverseKNN(t *testing.T) {
	conform(t, []byte{3, 26, OpQuery, 63, OpQuery, 64}, 1)
}

// TestReadsBesideWrites: readers of every family, on every mutable shape,
// see each batch and each single write whole or not at all while a
// compacting checkpoint runs beside them, before and after a leader
// restart and a fail-stop.
func TestReadsBesideWrites(t *testing.T) {
	conform(t, []byte{6, 22, OpRace, 17, OpRestart, 0, OpRace, 21, OpFailStop, 17, OpRace, 4, OpQuery, 8}, 1, 4)
}

// conformanceSeeds: a generator byte, the initial population, then (op,
// arg) pairs.
var conformanceSeeds = [][]byte{
	// Continuous objects: bulk-loaded, churned, checkpointed and drained.
	{0, 29, OpQuery, 1, OpInsert, 3, OpDelete, 4, OpBatch, 23, OpQuery, 2, OpCheckpoint, 2, OpDelete, 9, OpQuery, 3},
	{2, 12, OpBatch, 5, OpBatch, 17, OpCheckpoint, 0, OpInsert, 2, OpQuery, 7, OpBatch, 22, OpDelete, 0, OpQuery, 8},
	{4, 3, OpQuery, 4, OpDelete, 0, OpDelete, 0, OpQuery, 5, OpDelete, 0, OpCheckpoint, 0, OpQuery, 6, OpInsert, 0, OpQuery, 7},
	{6, 0, OpBatch, 5, OpBatch, 5, OpBatch, 5, OpBatch, 5, OpInsert, 3, OpInsert, 3, OpCheckpoint, 1, OpBatch, 23, OpQuery, 30},
	// The tie lattice.
	{1, 28, OpQuery, 1, OpQuery, 2, OpBatch, 23, OpQuery, 3, OpCheckpoint, 2, OpQuery, 4},
	{3, 20, OpInsert, 3, OpQuery, 9, OpDelete, 7, OpCheckpoint, 0, OpQuery, 10, OpBatch, 11, OpQuery, 12},
	{5, 29, OpQuery, 13, OpQuery, 14, OpQuery, 15, OpQuery, 16},
	{7, 6, OpBatch, 5, OpBatch, 11, OpInsert, 3, OpDelete, 1, OpBatch, 17, OpQuery, 20, OpDelete, 2, OpDelete, 3, OpQuery, 21},
	// Replication and failure: refusals, deleted ids re-issued, restarts,
	// followers parked behind the window, and fail-stops on every log
	// shape, the sharded leader's fsync among them.
	{8, 16, OpRefuse, 0, OpDelete, 1, OpDelete, 2, OpInsert, 3, OpRefuse, 1, OpQuery, 1, OpRestart, 0, OpBatch, 23, OpQuery, 2, OpRefuse, 9},
	{10, 14, OpQuery, 0, OpFailStop, 3, OpQuery, 1, OpDelete, 0, OpFailStop, 16, OpQuery, 2, OpFailStop, 33, OpBatch, 11, OpQuery, 3},
	{12, 20, OpDelete, 3, OpDelete, 4, OpBatch, 14, OpFailStop, 1, OpQuery, 5, OpInsert, 3, OpInsert, 3, OpRestart, 0, OpQuery, 6},
	{9, 18, OpRefuse, 4, OpRefuse, 3, OpQuery, 7, OpFailStop, 34, OpBatch, 21, OpQuery, 8, OpCheckpoint, 1, OpRefuse, 10, OpQuery, 9},
	{14, 18, OpQuery, 0, OpDelete, 1, OpDelete, 2, OpDelete, 3, OpQuery, 1, OpDelete, 4, OpDelete, 5, OpQuery, 2, OpBatch, 24, OpRefuse, 135, OpRefuse, 136, OpRefuse, 139, OpRefuse, 145, OpQuery, 3},
	// Reads beside writes, on continuous objects and on the lattice.
	{16, 24, OpRace, 23, OpQuery, 4, OpFailStop, 2, OpRace, 9, OpDelete, 5, OpRace, 16},
	{11, 20, OpRace, 11, OpCheckpoint, 2, OpRace, 22, OpRestart, 0, OpRace, 5, OpQuery, 6},
	// The served log shape fail-stopped on an fsync and on a torn write,
	// and refusals sent in batches over HTTP.
	{13, 18, OpFailStop, 144, OpQuery, 3, OpRefuse, 136, OpFailStop, 152, OpRefuse, 17, OpQuery, 4},
}
