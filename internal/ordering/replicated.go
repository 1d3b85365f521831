package ordering

import (
	"errors"
	"fmt"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

// This file implements the §3.4 mitigation in full: instead of trusting a
// third-party orderer, channel members run a replicated, crash-fault-
// tolerant ordering cluster themselves. The cluster is leader-based with
// majority-quorum commit (a deliberately simplified Raft: terms, leader
// election by majority vote, commit on quorum acknowledgement). Replicas
// keep the committed chain head, not the blocks, which subscribers hold.
// Fault injection in tests covers leader crash, failover, and the
// minority-partition liveness loss.

// Errors returned by the replicated ordering service.
var (
	// ErrNoLeader is returned when no node currently leads the cluster.
	ErrNoLeader = errors.New("ordering: cluster has no leader")
	// ErrNotLeader is returned when a follower is asked to order.
	ErrNotLeader = errors.New("ordering: node is not the leader")
	// ErrNodeDown is returned when a crashed node is asked to serve.
	ErrNodeDown = errors.New("ordering: node is down")
	// ErrNoQuorum is returned when fewer than a majority of nodes
	// acknowledge replication.
	ErrNoQuorum = errors.New("ordering: replication quorum unavailable")
	// ErrClusterSize is returned for clusters smaller than 3 nodes.
	ErrClusterSize = errors.New("ordering: cluster needs at least 3 nodes")
	// ErrQueuedAwaitingLeader marks a submission that was accepted into the
	// pending queue but could not be sequenced because leadership (or the
	// replication quorum) fell over between enqueue and flush. The
	// transaction stays queued: the next successful Flush — typically the
	// failover replay — sequences it, so resubmitting it would order it
	// twice. The underlying ErrNoLeader/ErrNoQuorum stays matchable through
	// errors.Is.
	ErrQueuedAwaitingLeader = errors.New("ordering: transaction queued awaiting a sequencing leader")
)

// clusterNode is one member-operated ordering node. It keeps the head of
// the chain it has committed, not the blocks: committed blocks belong to
// subscribers, and an election or a catch-up reads only the height, the
// head hash and the term. Guarded by the owning Cluster's mu.
type clusterNode struct {
	operator string
	down     bool
	term     uint64
	// height is the number of blocks this node has committed on the
	// channel; head is the hash of the last of them.
	height uint64
	head   [32]byte
}

// Cluster is a member-run replicated ordering service for one channel
// group. Each node is operated by a different consortium member, so the
// §3.4 "ordering sees everything" leak is confined to parties that are
// already entitled to the data.
type Cluster struct {
	channel    string
	visibility Visibility
	log        *audit.Log

	// mu guards the fields below and every node's state.
	mu       sync.Mutex
	nodes    []*clusterNode
	leader   int // index into nodes, -1 when none
	height   uint64
	lastHash [32]byte
	pending  []ledger.Transaction
	batch    int
	subs     []DeliverFunc

	// deliver serializes replication + delivery so subscribers receive
	// blocks in height order under concurrent submitters (see
	// Service.Flush for the solo-orderer equivalent).
	deliver sync.Mutex
}

// NewCluster creates a replicated ordering cluster for a channel, one node
// per operator. The first operator starts as leader (a deterministic
// bootstrap election).
func NewCluster(channel string, operators []string, visibility Visibility, opts ...ClusterOption) (*Cluster, error) {
	if len(operators) < 3 {
		return nil, ErrClusterSize
	}
	c := &Cluster{
		channel:    channel,
		visibility: visibility,
		leader:     0,
		batch:      1,
	}
	for _, op := range operators {
		c.nodes = append(c.nodes, &clusterNode{operator: op})
	}
	c.nodes[0].term = 1
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// ClusterOption configures a cluster.
type ClusterOption func(*Cluster)

// WithClusterAudit attaches leakage accounting.
func WithClusterAudit(log *audit.Log) ClusterOption {
	return func(c *Cluster) { c.log = log }
}

// WithClusterBatch sets transactions per block.
func WithClusterBatch(n int) ClusterOption {
	return func(c *Cluster) {
		if n > 0 {
			c.batch = n
		}
	}
}

// Subscribe registers a block consumer.
func (c *Cluster) Subscribe(deliver DeliverFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs = append(c.subs, deliver)
}

// Leader returns the operator of the current leader.
func (c *Cluster) Leader() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.leader < 0 {
		return "", ErrNoLeader
	}
	return c.nodes[c.leader].operator, nil
}

// Crash takes a node down.
func (c *Cluster) Crash(operator string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.indexOf(operator)
	if idx < 0 {
		return fmt.Errorf("ordering: unknown node %q", operator)
	}
	c.nodes[idx].down = true
	if idx == c.leader {
		c.leader = -1
	}
	return nil
}

// Restart brings a crashed node back as a follower; it catches up to the
// current leader's head. With no leader it keeps the head it committed
// before the crash, and the next commit moves it forward.
func (c *Cluster) Restart(operator string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.indexOf(operator)
	if idx < 0 {
		return fmt.Errorf("ordering: unknown node %q", operator)
	}
	node := c.nodes[idx]
	node.down = false
	if c.leader >= 0 {
		c.catchUpLocked(node)
	}
	return nil
}

func (c *Cluster) indexOf(operator string) int {
	for i, n := range c.nodes {
		if n.operator == operator {
			return i
		}
	}
	return -1
}

// Elect runs a leader election: the first live node with the highest
// committed head that can gather a majority of live votes becomes leader
// at a new term, and ordering resumes from its head. Returns the new
// leader's operator.
func (c *Cluster) Elect() (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leader = -1
	if live := c.liveLocked(); live < len(c.nodes)/2+1 {
		return "", fmt.Errorf("%w: %d of %d nodes live", ErrNoQuorum, live, len(c.nodes))
	}
	// Candidate choice: the live node with the highest committed head
	// (Raft's up-to-date restriction), ties broken by node order. A live
	// majority overlaps the majority that was live at the last commit, and
	// every commit moves each live node to the new head, so the winner
	// holds the latest committed head.
	best := -1
	var maxTerm uint64
	for i, n := range c.nodes {
		maxTerm = max(maxTerm, n.term)
		if !n.down && (best < 0 || n.height > c.nodes[best].height) {
			best = i
		}
	}
	for _, n := range c.nodes {
		if !n.down {
			n.term = maxTerm + 1
		}
	}
	c.leader = best
	leader := c.nodes[best]
	c.height = leader.height
	c.lastHash = leader.head
	return leader.operator, nil
}

// liveLocked counts the nodes that are up. Caller holds c.mu.
func (c *Cluster) liveLocked() int {
	live := 0
	for _, n := range c.nodes {
		if !n.down {
			live++
		}
	}
	return live
}

// Submit queues a transaction with the current leader.
func (c *Cluster) Submit(tx ledger.Transaction) error {
	if err := tx.Validate(); err != nil {
		return fmt.Errorf("cluster submit: %w", err)
	}
	c.mu.Lock()
	if c.leader < 0 {
		c.mu.Unlock()
		return ErrNoLeader
	}
	// Every live cluster node's operator observes the envelope; with full
	// visibility, the payload and parties too. Because operators are
	// channel members, this confines rather than creates the leak.
	c.observeLocked(tx)
	c.pending = append(c.pending, tx)
	ready := len(c.pending) >= c.batch
	c.mu.Unlock()
	if ready {
		if err := c.Flush(); err != nil && (errors.Is(err, ErrNoLeader) || errors.Is(err, ErrNoQuorum)) {
			// The transaction is appended but unsequenced; mark it so a
			// failover driver knows to replay the queue instead of
			// resubmitting (which would order it twice).
			return fmt.Errorf("%w: %w", ErrQueuedAwaitingLeader, err)
		} else if err != nil {
			return err
		}
	}
	return nil
}

// cancelPending removes one queued instance of tx (matched by transaction
// ID) from the pending queue, reporting whether it was still there. A
// failover driver calls this when its election failed: the submission is
// withdrawn so the error it returns means "not ordered" — unless a racing
// failover already flushed the queue, in which case the transaction was
// sequenced after all.
func (c *Cluster) cancelPending(tx ledger.Transaction) bool {
	id := tx.ID()
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.pending {
		if c.pending[i].ID() == id {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Pending returns the number of queued-but-unsequenced transactions.
func (c *Cluster) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// exportState snapshots the cluster's chain state for migration: committed
// height, head hash, and the queued transactions that have not been
// sequenced yet. Taking the delivery lock first drains any in-flight flush
// so the snapshot is a consistent cut.
func (c *Cluster) exportState() ChannelState {
	c.deliver.Lock()
	defer c.deliver.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChannelState{
		Height:   c.height,
		LastHash: c.lastHash,
		Pending:  append([]ledger.Transaction(nil), c.pending...),
	}
}

// adoptState seeds a freshly constructed cluster with chain state imported
// from another shard: every node starts at the imported head, so block
// numbering and hash chaining continue from it across later elections too.
func (c *Cluster) adoptState(st ChannelState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		n.height = st.Height
		n.head = st.LastHash
	}
	c.height = st.Height
	c.lastHash = st.LastHash
	c.pending = append([]ledger.Transaction(nil), st.Pending...)
}

func (c *Cluster) observeLocked(tx ledger.Transaction) {
	id := tx.ID()
	for _, n := range c.nodes {
		if n.down {
			continue
		}
		c.log.Record(n.operator, audit.ClassTxMetadata, id)
		if c.visibility == VisibilityFull {
			c.log.Record(n.operator, audit.ClassTxData, id)
			c.log.Record(n.operator, audit.ClassIdentity, tx.Creator)
		}
	}
}

// Flush orders pending transactions: with a live majority to acknowledge
// it, the leader cuts the next block, every live node commits it as its
// new head, and only then is it delivered to subscribers. Without a
// majority nothing is cut and the transactions stay queued.
func (c *Cluster) Flush() error {
	c.deliver.Lock()
	defer c.deliver.Unlock()
	c.mu.Lock()
	if c.leader < 0 {
		c.mu.Unlock()
		return ErrNoLeader
	}
	if len(c.pending) == 0 {
		c.mu.Unlock()
		return nil
	}
	// Every live node acknowledges replication.
	if acks, quorum := c.liveLocked(), len(c.nodes)/2+1; acks < quorum {
		c.mu.Unlock()
		return fmt.Errorf("%w: %d of %d acks", ErrNoQuorum, acks, quorum)
	}
	block := ledger.NewBlock(c.height, c.lastHash, c.pending)
	c.pending = nil
	c.height++
	c.lastHash = block.Hash()
	for _, n := range c.nodes {
		if !n.down {
			n.height = c.height
			n.head = c.lastHash
		}
	}
	subs := append([]DeliverFunc(nil), c.subs...)
	c.mu.Unlock()

	for _, deliver := range subs {
		if err := deliver(block); err != nil {
			return fmt.Errorf("deliver block %d: %w", block.Number, err)
		}
	}
	return nil
}

// catchUpLocked moves a restarted node to the leader's head and term.
// Caller holds c.mu.
func (c *Cluster) catchUpLocked(node *clusterNode) {
	leader := c.nodes[c.leader]
	node.height = leader.height
	node.head = leader.head
	node.term = leader.term
}

// CommittedBlocks returns the chain height one node has committed — the
// channel's block count, including blocks imported by a channel migration
// — letting tests verify replication.
func (c *Cluster) CommittedBlocks(operator string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx := c.indexOf(operator)
	if idx < 0 {
		return 0, fmt.Errorf("ordering: unknown node %q", operator)
	}
	n := c.nodes[idx]
	if n.down {
		return 0, ErrNodeDown
	}
	return int(n.height), nil
}

// LiveNodes returns the operators of nodes currently up.
func (c *Cluster) LiveNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, n := range c.nodes {
		if !n.down {
			out = append(out, n.operator)
		}
	}
	return out
}
