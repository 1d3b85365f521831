package ordering

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
)

var clusterOps = []string{"BankA", "SellerCo", "BuyerInc"}

func newCluster(t *testing.T, opts ...ClusterOption) (*Cluster, *ledger.Ledger) {
	t.Helper()
	c, err := NewCluster("trade", clusterOps, VisibilityFull, opts...)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	l := ledger.New("trade")
	c.Subscribe(l.Append)
	return c, l
}

func TestClusterTooSmall(t *testing.T) {
	if _, err := NewCluster("x", []string{"a", "b"}, VisibilityFull); !errors.Is(err, ErrClusterSize) {
		t.Fatalf("2-node cluster = %v, want ErrClusterSize", err)
	}
}

func TestClusterOrdersAndReplicates(t *testing.T) {
	c, l := newCluster(t)
	for i := 0; i < 5; i++ {
		if err := c.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if l.Height() != 5 {
		t.Fatalf("ledger height = %d, want 5", l.Height())
	}
	for _, op := range clusterOps {
		n, err := c.CommittedBlocks(op)
		if err != nil || n != 5 {
			t.Fatalf("node %s committed = %d, %v; want 5", op, n, err)
		}
	}
}

func TestLeaderBootstrap(t *testing.T) {
	c, _ := newCluster(t)
	leader, err := c.Leader()
	if err != nil || leader != "BankA" {
		t.Fatalf("Leader = %q, %v", leader, err)
	}
}

func TestFailoverAfterLeaderCrash(t *testing.T) {
	c, l := newCluster(t)
	if err := c.Submit(mkTx("trade", "BankA", "k0")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Crash("BankA"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := c.Leader(); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("Leader after crash = %v, want ErrNoLeader", err)
	}
	if err := c.Submit(mkTx("trade", "SellerCo", "k1")); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("Submit without leader = %v, want ErrNoLeader", err)
	}
	newLeader, err := c.Elect()
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if newLeader == "BankA" {
		t.Fatal("crashed node must not win the election")
	}
	// Ordering resumes and the chain continues from the committed state.
	if err := c.Submit(mkTx("trade", "SellerCo", "k1")); err != nil {
		t.Fatalf("Submit after failover: %v", err)
	}
	if l.Height() != 2 {
		t.Fatalf("ledger height = %d, want 2", l.Height())
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatalf("chain broken after failover: %v", err)
	}
}

func TestMinorityPartitionLosesLiveness(t *testing.T) {
	c, _ := newCluster(t)
	if err := c.Crash("SellerCo"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := c.Crash("BuyerInc"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// Leader alone cannot reach quorum.
	err := c.Submit(mkTx("trade", "BankA", "k"))
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Submit without quorum = %v, want ErrNoQuorum", err)
	}
	// Election also fails with a minority.
	if err := c.Crash("BankA"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := c.Elect(); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Elect with all down = %v, want ErrNoQuorum", err)
	}
}

func TestQuorumFailureRollsBack(t *testing.T) {
	c, l := newCluster(t)
	_ = c.Crash("SellerCo")
	_ = c.Crash("BuyerInc")
	if err := c.Submit(mkTx("trade", "BankA", "k")); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Submit = %v, want ErrNoQuorum", err)
	}
	if l.Height() != 0 {
		t.Fatal("block must not be delivered without quorum")
	}
	// After the followers return, the pending transaction commits.
	if err := c.Restart("SellerCo"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := c.Restart("BuyerInc"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if l.Height() != 1 {
		t.Fatalf("ledger height = %d, want 1", l.Height())
	}
}

func TestRestartCatchesUp(t *testing.T) {
	c, _ := newCluster(t)
	if err := c.Crash("BuyerInc"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if _, err := c.CommittedBlocks("BuyerInc"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("down node query = %v, want ErrNodeDown", err)
	}
	if err := c.Restart("BuyerInc"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	n, err := c.CommittedBlocks("BuyerInc")
	if err != nil || n != 3 {
		t.Fatalf("restarted node committed = %d, %v; want 3", n, err)
	}
	if got := len(c.LiveNodes()); got != 3 {
		t.Fatalf("LiveNodes = %d, want 3", got)
	}
}

func TestElectionPrefersLongestLog(t *testing.T) {
	c, _ := newCluster(t)
	// Commit one block, then crash a follower so it lags.
	if err := c.Submit(mkTx("trade", "BankA", "k0")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if err := c.Crash("BuyerInc"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := c.Submit(mkTx("trade", "BankA", "k1")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Crash the leader; restart the lagging node WITHOUT catch-up being
	// possible (no leader): it must not win against SellerCo.
	if err := c.Crash("BankA"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := c.Restart("BuyerInc"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	leader, err := c.Elect()
	if err != nil {
		t.Fatalf("Elect: %v", err)
	}
	if leader != "SellerCo" {
		t.Fatalf("leader = %q, want SellerCo (highest committed head)", leader)
	}
}

func TestClusterVisibilityConfinedToMembers(t *testing.T) {
	log := audit.NewLog()
	c, _ := newCluster(t, WithClusterAudit(log))
	tx := mkTx("trade", "BankA", "k")
	if err := c.Submit(tx); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := tx.ID()
	// All cluster operators (= channel members) see the tx; nobody else
	// appears in the log at all.
	for _, op := range clusterOps {
		if !log.Saw(op, audit.ClassTxData, id) {
			t.Fatalf("member-operator %s must see tx data", op)
		}
	}
	for _, obs := range log.All() {
		found := false
		for _, op := range clusterOps {
			if obs.Observer == op {
				found = true
			}
		}
		if !found {
			t.Fatalf("unexpected observer %q", obs.Observer)
		}
	}
}

func TestClusterBatching(t *testing.T) {
	c, l := newCluster(t, WithClusterBatch(3))
	for i := 0; i < 2; i++ {
		if err := c.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if l.Height() != 0 {
		t.Fatal("batch must not cut early")
	}
	if err := c.Submit(mkTx("trade", "BankA", "k2")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if l.Height() != 1 {
		t.Fatalf("height = %d, want 1", l.Height())
	}
	b, err := l.Block(0)
	if err != nil || len(b.Txs) != 3 {
		t.Fatalf("Block(0) = %d txs, %v", len(b.Txs), err)
	}
}

func TestClusterRejectsInvalidTx(t *testing.T) {
	c, _ := newCluster(t)
	if err := c.Submit(ledger.Transaction{Creator: "x"}); err == nil {
		t.Fatal("invalid tx must be rejected")
	}
}

// TestStaleReplicaCannotReissueHeight replays a crash schedule in which a
// replica restarts while the cluster has no leader, so it cannot catch up
// on restart. Every commit it is live for must still move it to the new
// head: otherwise a later election could pick a replica that is behind and
// re-issue a committed height, forking the chain.
func TestStaleReplicaCannotReissueHeight(t *testing.T) {
	c, l := newCluster(t)
	step := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	step("crash SellerCo", c.Crash("SellerCo"))
	for i := 0; i < 3; i++ {
		step("submit", c.Submit(mkTx("trade", "BankA", fmt.Sprintf("k%d", i))))
	}
	step("crash BankA", c.Crash("BankA"))
	step("restart SellerCo", c.Restart("SellerCo"))
	_, err := c.Elect()
	step("first elect", err)
	step("submit", c.Submit(mkTx("trade", "BuyerInc", "k3")))
	step("crash BuyerInc", c.Crash("BuyerInc"))
	step("restart BankA", c.Restart("BankA"))
	leader, err := c.Elect()
	step("second elect", err)
	if leader != "SellerCo" {
		t.Fatalf("leader = %q, want SellerCo (the only live replica at height 4)", leader)
	}
	step("submit after second election", c.Submit(mkTx("trade", "SellerCo", "k4")))
	if l.Height() != 5 {
		t.Fatalf("ledger height = %d, want 5", l.Height())
	}
	step("verify chain", l.VerifyChain())
	for _, op := range []string{"BankA", "SellerCo"} {
		n, err := c.CommittedBlocks(op)
		if err != nil || n != 5 {
			t.Fatalf("node %s committed = %d, %v; want 5", op, n, err)
		}
	}
}

// commitDiscarding commits n single-transaction blocks through a cluster
// whose only subscriber drops every block.
func commitDiscarding(t testing.TB, n, payloadSize int) *Cluster {
	t.Helper()
	c, err := NewCluster("trade", clusterOps, VisibilityEnvelope)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	c.Subscribe(func(ledger.Block) error { return nil })
	for i := 0; i < n; i++ {
		tx := mkTx("trade", "BankA", fmt.Sprintf("k%d", i))
		tx.Payload = make([]byte, payloadSize)
		if err := c.Submit(tx); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	return c
}

func TestClusterRestartAllocatesNothing(t *testing.T) {
	c := commitDiscarding(t, 10000, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Crash("BuyerInc"); err != nil {
			t.Fatalf("Crash: %v", err)
		}
		if err := c.Restart("BuyerInc"); err != nil {
			t.Fatalf("Restart: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("crash+restart after 10000 commits allocates %.0f times, want 0", allocs)
	}
	if n, err := c.CommittedBlocks("BuyerInc"); err != nil || n != 10000 {
		t.Fatalf("restarted node committed = %d, %v; want 10000", n, err)
	}
}

// TestClusterRetainsNoBlocks holds the cluster's memory to its chain head:
// committed blocks belong to subscribers, so committing more of them must
// not grow the live heap.
func TestClusterRetainsNoBlocks(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	c := commitDiscarding(t, 20000, 1024)
	after := liveHeap()
	runtime.KeepAlive(c)
	if after > before && after-before >= 1<<20 {
		t.Fatalf("live heap grew %d B over 20000 committed 1 KiB blocks, want < 1 MiB", after-before)
	}
}
