package sched

import (
	"holdcsim/internal/job"
	"holdcsim/internal/server"
)

// ShardedLeastLoaded approximates LeastLoaded: it picks the shard with
// the smallest committed-task sum (the root of the shard winner tree
// commit maintains), then the least-loaded server within that shard.
// Ties break to the lower shard index, then the lower server ID. Exact
// LeastLoaded is as cheap at any farm size since it reads the per-server
// load tree, so this placer is kept only for the benchmark workload that
// pins its decisions.
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
		return s.leastLoaded(s.shardMembers[s.shards.node[1]], nil)
	}
	// No shards, or a filtered candidate list.
	return s.leastLoaded(candidates, nil)
}

// Name implements Placer.
func (ShardedLeastLoaded) Name() string { return "sharded-least-loaded" }
