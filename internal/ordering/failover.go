package ordering

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

// ReplicatedShard is the §3.4 mitigation promoted to a production shard: a
// Backend that runs one member-operated replicated Cluster per channel and
// recovers from leader loss on its own. A submission that hits a dead
// leader triggers an election under single-flight — concurrent submitters
// queue behind one Elect instead of stampeding — after which queued
// in-flight transactions are replayed in order and the submission retried.
// Per-channel delivery order is preserved across the kill: the new leader
// resumes from the quorum-committed chain head, and the replay flush
// sequences anything that was queued before any post-failover traffic.
//
// Behind a ShardedBackend this turns "one shard death loses 1/N of all
// channels forever" into an availability dip bounded by one election.
type ReplicatedShard struct {
	operators  []string
	visibility Visibility
	log        *audit.Log
	batch      int

	mu       sync.Mutex
	clusters map[string]*failoverCluster

	failovers atomic.Uint64
}

// failoverCluster pairs a channel's cluster with its election single-flight
// state.
type failoverCluster struct {
	c *Cluster
	// electMu single-flights elections: submitters that hit the same dead
	// leader queue here, and gen lets the queued ones detect that the first
	// one's election already ran and skip straight to their retry.
	electMu sync.Mutex
	gen     atomic.Uint64
}

// Compile-time check.
var _ Backend = (*ReplicatedShard)(nil)

// ReplicatedShardOption configures a replicated shard.
type ReplicatedShardOption func(*ReplicatedShard)

// WithShardAudit attaches leakage accounting to every cluster.
func WithShardAudit(log *audit.Log) ReplicatedShardOption {
	return func(rs *ReplicatedShard) { rs.log = log }
}

// WithShardBatch sets transactions per block.
func WithShardBatch(n int) ReplicatedShardOption {
	return func(rs *ReplicatedShard) {
		if n > 0 {
			rs.batch = n
		}
	}
}

// NewReplicatedShard creates a shard whose channels each run a replicated
// ordering cluster over the given operators (at least 3).
func NewReplicatedShard(operators []string, visibility Visibility, opts ...ReplicatedShardOption) (*ReplicatedShard, error) {
	if len(operators) < 3 {
		return nil, ErrClusterSize
	}
	rs := &ReplicatedShard{
		operators:  append([]string(nil), operators...),
		visibility: visibility,
		batch:      1,
		clusters:   make(map[string]*failoverCluster),
	}
	for _, opt := range opts {
		opt(rs)
	}
	return rs, nil
}

// Operators implements Backend.
func (rs *ReplicatedShard) Operators() []string {
	return append([]string(nil), rs.operators...)
}

// cluster returns (creating if needed) the failover wrapper for a channel.
func (rs *ReplicatedShard) cluster(channel string) (*failoverCluster, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	fc, ok := rs.clusters[channel]
	if !ok {
		c, err := NewCluster(channel, rs.operators, rs.visibility,
			WithClusterAudit(rs.log), WithClusterBatch(rs.batch))
		if err != nil {
			return nil, fmt.Errorf("cluster for %s: %w", channel, err)
		}
		fc = &failoverCluster{c: c}
		rs.clusters[channel] = fc
	}
	return fc, nil
}

// Cluster exposes a channel's cluster for fault injection in tests,
// benchmarks, and the chaos harness.
func (rs *ReplicatedShard) Cluster(channel string) (*Cluster, error) {
	fc, err := rs.cluster(channel)
	if err != nil {
		return nil, err
	}
	return fc.c, nil
}

// Submit implements Backend with automatic failover: a submission rejected
// because the leader is gone elects a new one (single-flight), replays the
// queue, and retries — callers only see an error when the shard has lost
// its replication quorum outright.
func (rs *ReplicatedShard) Submit(tx ledger.Transaction) error {
	fc, err := rs.cluster(tx.Channel)
	if err != nil {
		return err
	}
	err = fc.c.Submit(tx)
	if err == nil {
		return nil
	}
	queued := errors.Is(err, ErrQueuedAwaitingLeader)
	if !queued && !errors.Is(err, ErrNoLeader) {
		return err
	}
	if ferr := rs.failover(fc); ferr != nil {
		if queued && !fc.c.cancelPending(tx) {
			// A racing failover replayed the queue before ours failed: the
			// transaction is sequenced, so the submission succeeded.
			return nil
		}
		return ferr
	}
	if queued {
		// The transaction is already in the queue; flushing sequences it
		// (and anything queued behind it). Resubmitting would order it
		// twice.
		return fc.c.Flush()
	}
	return fc.c.Submit(tx)
}

// failover elects a new leader for the cluster under single-flight and
// replays the queued transactions the dead leader left behind. Concurrent
// callers that arrive while an election runs wait on electMu and then skip
// their own: the generation counter records the completed election.
func (rs *ReplicatedShard) failover(fc *failoverCluster) error {
	gen := fc.gen.Load()
	fc.electMu.Lock()
	defer fc.electMu.Unlock()
	if fc.gen.Load() != gen {
		// Another submitter's election (and replay) completed while this
		// one waited; don't run a second election for the same outage.
		return nil
	}
	if _, err := fc.c.Elect(); err != nil {
		return err
	}
	fc.gen.Add(1)
	rs.failovers.Add(1)
	// Replay: transactions queued when the old leader died are sequenced
	// by the new leader before any post-failover submission.
	return fc.c.Flush()
}

// Failovers counts the leader elections this shard ran to recover from a
// dead leader.
func (rs *ReplicatedShard) Failovers() uint64 { return rs.failovers.Load() }

// snapshot returns the current cluster set without holding the shard lock
// across per-cluster work.
func (rs *ReplicatedShard) snapshot() []*failoverCluster {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]*failoverCluster, 0, len(rs.clusters))
	for _, fc := range rs.clusters {
		out = append(out, fc)
	}
	return out
}

// ProbeHealth sweeps every cluster and runs a failover where no leader is
// serving, so channels without submit traffic recover on the probe
// interval rather than on their next submission. Returns the number of
// elections that succeeded.
func (rs *ReplicatedShard) ProbeHealth() int {
	n := 0
	for _, fc := range rs.snapshot() {
		if _, err := fc.c.Leader(); err == nil {
			continue
		}
		if err := rs.failover(fc); err == nil {
			n++
		}
	}
	return n
}

// CrashLeader crashes the current leader of a channel's cluster — the
// fault chaos scenarios and the demo inject — returning the operator that
// went down so the caller can later Restart it.
func (rs *ReplicatedShard) CrashLeader(channel string) (string, error) {
	fc, err := rs.cluster(channel)
	if err != nil {
		return "", err
	}
	op, err := fc.c.Leader()
	if err != nil {
		return "", err
	}
	return op, fc.c.Crash(op)
}

// Kill crashes every node of every cluster on the shard — the whole-shard
// failure. Submissions on its channels fail with ErrNoQuorum until Revive.
// Channels first touched after Kill start fresh clusters unaffected by it.
func (rs *ReplicatedShard) Kill() {
	for _, fc := range rs.snapshot() {
		for _, op := range rs.operators {
			_ = fc.c.Crash(op)
		}
	}
}

// Revive restarts every node of every cluster and elects a leader per
// cluster; each node's committed head survived the crash (crash-fault
// model, not disk loss), so chains resume at their pre-kill heights and
// any queued transactions are replayed.
func (rs *ReplicatedShard) Revive() {
	for _, fc := range rs.snapshot() {
		for _, op := range rs.operators {
			_ = fc.c.Restart(op)
		}
		_ = rs.failover(fc)
	}
}

// Subscribe implements Backend.
func (rs *ReplicatedShard) Subscribe(channel string, deliver DeliverFunc) {
	fc, err := rs.cluster(channel)
	if err != nil {
		// Construction can only fail on cluster size, validated in
		// NewReplicatedShard; surfaced on the first Submit instead.
		return
	}
	fc.c.Subscribe(deliver)
}

// ExportChannel implements ChannelMigrator.
func (rs *ReplicatedShard) ExportChannel(channel string) (ChannelState, error) {
	rs.mu.Lock()
	fc, ok := rs.clusters[channel]
	if ok {
		delete(rs.clusters, channel)
	}
	rs.mu.Unlock()
	if !ok {
		return ChannelState{}, fmt.Errorf("%w: %s", ErrUnknownChannel, channel)
	}
	return fc.c.exportState(), nil
}

// ImportChannel implements ChannelMigrator: a fresh cluster over this
// shard's operators is seeded with the imported chain state, so numbering
// and hash chaining continue from the sending shard even across later
// elections here.
func (rs *ReplicatedShard) ImportChannel(channel string, st ChannelState) error {
	c, err := NewCluster(channel, rs.operators, rs.visibility,
		WithClusterAudit(rs.log), WithClusterBatch(rs.batch))
	if err != nil {
		return fmt.Errorf("cluster for %s: %w", channel, err)
	}
	c.adoptState(st)
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.clusters[channel]; ok {
		return fmt.Errorf("%w: %s", ErrChannelExists, channel)
	}
	rs.clusters[channel] = &failoverCluster{c: c}
	return nil
}
