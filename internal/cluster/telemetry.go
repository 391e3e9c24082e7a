package cluster

import "censysmap/internal/telemetry"

// clusterTel is the nil-safe instrument bundle, following the core
// pipeline's pattern: every instrument is nil when no registry is attached,
// and the helpers no-op on nil receivers, so the replication path carries no
// telemetry branches.
type clusterTel struct {
	nodesAlive     *telemetry.Gauge
	partsDegraded  *telemetry.Gauge
	partsUnserved  *telemetry.Gauge
	maxLagRecords  *telemetry.Gauge
	leaseEpochMax  *telemetry.Gauge
	failovers      *telemetry.Counter
	rebalances     *telemetry.Counter
	rounds         *telemetry.Counter
	recordsShipped *telemetry.Counter
	bytesShipped   *telemetry.Counter
	catchupShips   *telemetry.Counter
	rpc            *telemetry.CounterVec
}

// attachTelemetry registers the cluster metric families on reg. A nil
// registry returns a zero-valued (fully inert) bundle.
func attachTelemetry(reg *telemetry.Registry, nodes, partitions int) *clusterTel {
	t := &clusterTel{}
	if reg == nil {
		return t
	}
	reg.Gauge("censys_cluster_nodes",
		"configured cluster size in nodes").Set(float64(nodes))
	reg.Gauge("censys_cluster_partitions",
		"partition count placed across the cluster").Set(float64(partitions))
	t.nodesAlive = reg.Gauge("censys_cluster_nodes_alive",
		"nodes currently alive")
	t.partsDegraded = reg.Gauge("censys_cluster_partitions_degraded",
		"partitions serving below replication quorum")
	t.partsUnserved = reg.Gauge("censys_cluster_partitions_unserved",
		"partitions with no alive in-sync replica")
	t.maxLagRecords = reg.Gauge("censys_replication_max_lag_records",
		"largest replica lag across all placements, in log records")
	t.leaseEpochMax = reg.Gauge("censys_cluster_lease_epoch_max",
		"highest lease epoch across partitions")
	t.failovers = reg.Counter("censys_cluster_failovers_total",
		"partition leaderships moved after lease expiry")
	t.rebalances = reg.Counter("censys_cluster_rebalances_total",
		"partition leaderships returned to their home node")
	t.rounds = reg.Counter("censys_replication_rounds_total",
		"replication rounds driven")
	t.recordsShipped = reg.Counter("censys_replication_records_shipped_total",
		"replication log records shipped to replicas")
	t.bytesShipped = reg.Counter("censys_replication_bytes_shipped_total",
		"replication payload bytes shipped to replicas")
	t.catchupShips = reg.Counter("censys_replication_catchup_ships_total",
		"ships that replayed more than the latest round (rejoin catch-up)")
	t.rpc = reg.CounterVec("censys_cluster_rpc_total",
		"cluster RPC calls, by method", "method")
	return t
}
