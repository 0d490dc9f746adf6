package asv

import (
	"asv/internal/cluster"
	"asv/internal/serve"
)

// Cluster facade: re-exports of the internal/cluster types that commands and
// external users need to run the sharded serving tier. See DESIGN.md §10
// "Sharded serving".

// ClusterShard names one asvserve backend and where to reach it.
type ClusterShard = cluster.Shard

// ClusterConfig parameterizes a gateway (shard set, vnode replicas, health
// probing cadence).
type ClusterConfig = cluster.Config

// ClusterGateway is the stateless routing tier: it consistent-hashes session
// ids onto shards, fails over around dead ones, and migrates sessions via
// the snapshot/restore API on drain.
type ClusterGateway = cluster.Gateway

// ServeClusterLoadReport is a cluster-mode load run: per-target reports plus
// an aggregate whose percentiles cover the merged sample set.
type ServeClusterLoadReport = serve.ClusterLoadReport

// RunServeLoadCluster fans the configured workload out over every target
// concurrently and merges the results; see ServeClusterLoadReport.
func RunServeLoadCluster(cfg ServeLoadConfig, targets []string) (ServeClusterLoadReport, error) {
	return serve.RunLoadCluster(cfg, targets)
}

// NewClusterGateway builds a gateway over the configured shards. Call Start
// to bind a listener and Close to stop.
func NewClusterGateway(cfg ClusterConfig) (*ClusterGateway, error) {
	return cluster.New(cfg)
}
