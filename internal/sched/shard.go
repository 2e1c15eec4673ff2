package sched

import (
	"holdcsim/internal/job"
	"holdcsim/internal/server"
)

// ShardedLeastLoaded approximates LeastLoaded at a fraction of the cost:
// it picks the shard with the smallest committed-task sum (the root of
// the winner tree the commit helper maintains over the shardLoad
// aggregates), then the least-loaded server within that shard — O(1) for
// the shard and O(N/shards) for the server per placement instead of
// O(N), which is what makes million-server farms placeable. Ties break
// to the lower shard index, then the lower server ID, mirroring
// LeastLoaded's determinism contract.
//
// The shard fast path requires the full farm as the candidate set, so
// `len(candidates) == len(s.servers)` means exactly "no server down".
// With any server crashed (candidates came alive-filtered) it falls back
// to plain LeastLoaded over the given candidates, so behavior under
// faults is exactly the unsharded policy's.
type ShardedLeastLoaded struct{}

// Place implements Placer.
func (ShardedLeastLoaded) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	if s.shardOf != nil && len(candidates) == len(s.servers) {
		return s.leastLoaded(s.shardMembers[s.shardTree[1]], nil)
	}
	// No shards, or a filtered candidate list.
	return s.leastLoaded(candidates, nil)
}

// Name implements Placer.
func (ShardedLeastLoaded) Name() string { return "sharded-least-loaded" }
