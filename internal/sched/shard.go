package sched

import (
	"holdcsim/internal/job"
	"holdcsim/internal/server"
)

// ShardedLeastLoaded approximates LeastLoaded at a fraction of the cost:
// it picks the shard with the smallest committed-task sum (argmin over
// the shardLoad aggregates the commit helper maintains), then the
// least-loaded server within that shard — O(shards + N/shards) per
// placement instead of O(N), which is what makes million-server farms
// placeable. Ties break to the lower shard index, then the lower server
// ID, mirroring LeastLoaded's determinism contract.
//
// The shard fast path requires the full healthy farm as the candidate
// set — the same condition as PR 4's alive-filter fast path. Kind-
// restricted tasks or any crashed server (candidates came alive-filtered)
// fall back to plain LeastLoaded over the given candidates, so behavior
// under faults is exactly the unsharded policy's.
type ShardedLeastLoaded struct{}

// Place implements Placer.
func (ShardedLeastLoaded) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	if s.shardOf != nil && len(candidates) == len(s.servers) {
		best := 0
		for i := 1; i < len(s.shardLoad); i++ {
			if s.shardLoad[i] < s.shardLoad[best] {
				best = i
			}
		}
		if srv := s.leastLoaded(s.shardMembers[best], nil); srv != nil {
			return srv
		}
	}
	// No shards, a filtered candidate list, or an empty shard.
	return s.leastLoaded(candidates, nil)
}

// Name implements Placer.
func (ShardedLeastLoaded) Name() string { return "sharded-least-loaded" }
