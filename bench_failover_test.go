package dltprivacy_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
)

// BenchmarkShardFailover measures the availability cost of losing a shard
// leader on a 16-shard replicated topology: every iteration crashes the
// current leader of one shard's channel, submits (the submission triggers
// the election, replay, and retry inside the shard), and restarts the dead
// operator. ns/op is therefore an upper bound on how long one shard's
// channels are unavailable after a leader death — the CI benchmark gate
// holds it under one second, the §3.4 availability dip the replicated
// fabric promises. Other shards' channels never stop serving (the chaos
// suite asserts that isolation).
func BenchmarkShardFailover(b *testing.B) {
	b.Run("shards=16", func(b *testing.B) { benchShardFailover(b, 16) })
}

func benchShardFailover(b *testing.B, nShards int) {
	b.Helper()
	shards := make([]ordering.Backend, nShards)
	replicated := make([]*ordering.ReplicatedShard, nShards)
	for i := range shards {
		ops := []string{
			fmt.Sprintf("fo-op-%d-0", i),
			fmt.Sprintf("fo-op-%d-1", i),
			fmt.Sprintf("fo-op-%d-2", i),
		}
		rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope)
		if err != nil {
			b.Fatal(err)
		}
		shards[i] = rs
		replicated[i] = rs
	}
	sb, err := ordering.NewSharded(shards)
	if err != nil {
		b.Fatal(err)
	}
	var delivered atomic.Uint64
	channels := make([]string, nShards)
	for i := range channels {
		channels[i] = fmt.Sprintf("fo-ch-%02d", i)
		if err := sb.Pin(channels[i], i); err != nil {
			b.Fatal(err)
		}
		sb.Subscribe(channels[i], func(blk ledger.Block) error {
			delivered.Add(uint64(len(blk.Txs)))
			return nil
		})
	}
	mkTx := func(ch string, n int) ledger.Transaction {
		return ledger.Transaction{
			Channel:   ch,
			Creator:   "bench",
			Payload:   []byte("failover"),
			Writes:    []ledger.Write{{Key: fmt.Sprintf("k-%d", n), Value: []byte("v")}},
			Timestamp: time.Unix(1700000000, 0).UTC(),
		}
	}
	// Prime every channel so each cluster has a leader and a committed head
	// before the first kill.
	for i, ch := range channels {
		if err := sb.Submit(mkTx(ch, -i-1)); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shard := i % nShards
		ch := channels[shard]
		rs := replicated[shard]
		dead, err := rs.CrashLeader(ch)
		if err != nil {
			b.Fatal(err)
		}
		// The submission lands leaderless and rides the automatic election.
		if err := sb.Submit(mkTx(ch, i)); err != nil {
			b.Fatal(err)
		}
		c, err := rs.Cluster(ch)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Restart(dead); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got, want := delivered.Load(), uint64(b.N+nShards); got != want {
		b.Fatalf("delivered %d txs, want %d", got, want)
	}
}

// BenchmarkClusterRestart prices bringing a crashed replica back after a
// long history: 50,000 blocks are committed before the timer starts, and
// each iteration crashes a follower and restarts it. A replica catches up
// by copying the leader's chain head, so the cost must not grow with the
// history; the CI benchmark gate holds B/op at zero with a bytes ceiling.
func BenchmarkClusterRestart(b *testing.B) {
	c, err := ordering.NewCluster("restart-ch", []string{"rs-op-0", "rs-op-1", "rs-op-2"}, ordering.VisibilityEnvelope)
	if err != nil {
		b.Fatal(err)
	}
	c.Subscribe(func(ledger.Block) error { return nil })
	const history = 50000
	for i := 0; i < history; i++ {
		tx := ledger.Transaction{
			Channel:   "restart-ch",
			Creator:   "bench",
			Payload:   []byte("restart"),
			Writes:    []ledger.Write{{Key: fmt.Sprintf("k-%d", i), Value: []byte("v")}},
			Timestamp: time.Unix(1700000000, 0).UTC(),
		}
		if err := c.Submit(tx); err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Crash("rs-op-2"); err != nil {
			b.Fatal(err)
		}
		if err := c.Restart("rs-op-2"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n, err := c.CommittedBlocks("rs-op-2"); err != nil || n != history {
		b.Fatalf("restarted replica committed %d blocks (%v), want %d", n, err, history)
	}
}
