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
// A shard's sum counts its crashed members' commitments, so with any
// server down — or no shards set — it places as LeastLoaded does.
type ShardedLeastLoaded struct{}

// Place implements Placer.
func (ShardedLeastLoaded) Place(s *Scheduler, t *job.Task) *server.Server {
	if s.shardOf != nil && s.downCount == 0 {
		return leastBy(s.shardMembers[s.shards.node[1]], func(srv *server.Server) int { return s.committed[srv.ID()] })
	}
	return s.leastLoaded()
}

// Name implements Placer.
func (ShardedLeastLoaded) Name() string { return "sharded-least-loaded" }
