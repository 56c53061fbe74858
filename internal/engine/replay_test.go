package engine_test

import (
	"testing"

	. "fuzzyknn/internal/conform"
)

// served replays a history through internal/conform's served shapes, an
// in-memory and a 2-shard log-backed index behind an engine and its HTTP
// server: after every step the engine's totals must be what the checker
// sent and received, and the store's raw count what the replies charged.
func served(t *testing.T, history ...byte) {
	Run(t, history, Shapes{Shards: []int{2}, ServedOnly: true})
}

// TestEngineQueriesDuringMutations: readers of every query kind beside
// inserts and deletes that the engine coalesces; every answer must be the
// scan of the population after some commit its read could have seen.
func TestEngineQueriesDuringMutations(t *testing.T) {
	served(t, 0, 24, OpRace, 23, OpRace, 17, OpRace, 5, OpRace, 12, OpRace, 22, OpRace, 9)
}

// TestEngineCoalesceAccounting: deletes in group commits charge their
// locate probes, and groups that a refused item sends one request at a
// time charge their validation probes too, and still the store's raw count
// is the engine's sum of per-request stats.
func TestEngineCoalesceAccounting(t *testing.T) {
	served(t, 2, 20, OpBatch, 23, OpRefuse, 6, OpRefuse, 9, OpBatch, 22, OpRefuse, 136, OpRefuse, 139, OpQuery, 3)
}

// TestEngineCoalesceFallback: a group holding refused requests — live ids
// inserted again, dead and never-issued ids deleted, an id deleted twice —
// answers each of them its own error, worded as its class, while every
// valid groupmate lands.
func TestEngineCoalesceFallback(t *testing.T) {
	served(t, 0, 20, OpRefuse, 5, OpRefuse, 16, OpRefuse, 19, OpRefuse, 135, OpRefuse, 136, OpRefuse, 139, OpQuery, 2)
}

// TestEngineInterleavedReadsAndWrites: the query workers and the write
// coalescer run at once against one index; every write lands and every
// read answers at a committed prefix.
func TestEngineInterleavedReadsAndWrites(t *testing.T) {
	served(t, 4, 10, OpBatch, 17, OpRace, 5, OpInsert, 3, OpRace, 23, OpQuery, 1)
}
