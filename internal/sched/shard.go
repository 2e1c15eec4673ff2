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
		// The members are in ID order and only a strictly smaller load
		// displaces the incumbent, so ties go to the lower ID. The scan
		// reads committed alone, not the members' records.
		members := s.shardMembers[s.shards.node[1]]
		best := members[0]
		bestLoad := s.committed[best]
		for _, id := range members[1:] {
			if l := s.committed[id]; l < bestLoad {
				best, bestLoad = id, l
			}
		}
		return s.servers[best]
	}
	return s.leastLoaded()
}

// Name implements Placer.
func (ShardedLeastLoaded) Name() string { return "sharded-least-loaded" }
