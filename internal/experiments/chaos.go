package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// ChaosConfig shapes one chaos/soak run over a replicated sharded gateway.
type ChaosConfig struct {
	// Shards is the number of ordering shards; Replicas the operators per
	// shard (>= 3).
	Shards   int
	Replicas int
	// Channels spread the storm; Submitters goroutines each drive
	// Submissions requests round-robin over them.
	Channels    int
	Submitters  int
	Submissions int
	// KillLeaderEvery crashes (and restarts) the leader of some channel's
	// cluster every N global submissions; 0 disables leader chaos.
	KillLeaderEvery int
	// KillShard kills every operator of the first channel's shard at the
	// halfway mark and revives the shard at the three-quarter mark, to
	// verify failures stay confined to that shard's channels.
	KillShard bool
	// RebalanceEvery runs a skew-driven rebalancing pass every N global
	// submissions; 0 disables. Do not combine with KillShard — a dead
	// shard's low load reads as "cold" and attracts migrations.
	RebalanceEvery int
	// RevokeMidStorm revokes the last member's certificate when one of its
	// submitters reaches the halfway mark of its own submissions; its
	// remaining submissions must all be rejected. The trigger is the
	// member's own progress, not the global count, so the member always
	// has submissions left however the scheduler orders the submitters.
	RevokeMidStorm bool
}

// ChaosReport is what a chaos run observed.
type ChaosReport struct {
	// Submitted counts every submission attempted; Succeeded those the
	// gateway accepted.
	Submitted int
	Succeeded int
	// Failed buckets rejected submissions by error class.
	Failed map[string]int
	// RevokedRejected counts the revoked member's post-revocation
	// submissions (all rejected; also present in Failed).
	RevokedRejected int
	// Failovers and Migrations aggregate the ordering tier's recovery and
	// rebalancing activity during the storm.
	Failovers  uint64
	Migrations uint64
	// Delivered maps channel -> transactions its subscriber saw.
	Delivered map[string]int
	// Violations lists per-channel ordering violations: out-of-order block
	// numbers, broken hash chains, duplicate transactions. A healthy run
	// has none, no matter what the chaos did.
	Violations []string
}

// chaosVerifier checks one channel's delivery stream. Deliveries for a
// channel are serialized by its cluster (and, across migration or
// failover, by the migration gate and election lock), so the unguarded
// fields are themselves part of what -race verifies.
type chaosVerifier struct {
	channel  string
	next     uint64
	lastHash [32]byte
	txs      int
	seen     map[string]bool

	mu         sync.Mutex
	violations []string
}

func (v *chaosVerifier) deliver(b ledger.Block) error {
	bad := func(format string, args ...any) {
		v.mu.Lock()
		v.violations = append(v.violations, v.channel+": "+fmt.Sprintf(format, args...))
		v.mu.Unlock()
	}
	if b.Number != v.next {
		bad("block %d out of order, want %d", b.Number, v.next)
	}
	if v.next > 0 && b.Number == v.next && b.PrevHash != v.lastHash {
		bad("block %d breaks the hash chain", b.Number)
	}
	for _, tx := range b.Txs {
		id := tx.ID()
		if v.seen[id] {
			bad("tx %s delivered twice", id)
		}
		v.seen[id] = true
	}
	v.next = b.Number + 1
	v.lastHash = b.Hash()
	v.txs += len(b.Txs)
	return nil
}

// RunChaos stands up a full gateway — session, authn, rate limit,
// envelope encryption, audit, retry, breaker — over a replicated sharded
// ordering tier and drives concurrent client traffic through it while
// injecting the configured faults: leader kills, a whole-shard kill and
// revival, skew-driven rebalancing, and mid-storm certificate revocation.
// It reports what clients and subscribers observed; the chaos suite
// asserts the invariants (no ordering violations, failures confined to
// the injected faults) on the report.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Shards < 1 || cfg.Replicas < 3 || cfg.Channels < 1 || cfg.Submitters < 1 || cfg.Submissions < 1 {
		return nil, fmt.Errorf("experiments: chaos config needs shards/channels/submitters/submissions >= 1 and replicas >= 3, got %+v", cfg)
	}

	// Consortium: three members enrolled with the CA.
	ca, err := pki.NewCA("chaos-ca")
	if err != nil {
		return nil, err
	}
	members := []string{"org-a", "org-b", "org-c"}
	keys := make(map[string]*dcrypto.PrivateKey, len(members))
	certs := make(map[string]pki.Certificate, len(members))
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, m := range members {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			return nil, err
		}
		cert, err := ca.Enroll(m, key.Public())
		if err != nil {
			return nil, err
		}
		keys[m], certs[m], memberKeys[m] = key, cert, key.Public()
	}

	// Replicated sharded ordering tier.
	log := audit.NewLog()
	shards := make([]ordering.Backend, cfg.Shards)
	replicated := make([]*ordering.ReplicatedShard, cfg.Shards)
	for i := range shards {
		ops := make([]string, cfg.Replicas)
		for r := range ops {
			ops[r] = fmt.Sprintf("chaos-op-%d-%d", i, r)
		}
		rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope, ordering.WithShardAudit(log))
		if err != nil {
			return nil, err
		}
		shards[i] = rs
		replicated[i] = rs
	}
	sb, err := ordering.NewSharded(shards)
	if err != nil {
		return nil, err
	}

	channels := make([]string, cfg.Channels)
	verifiers := make([]*chaosVerifier, cfg.Channels)
	dir := middleware.StaticDirectory{}
	for i := range channels {
		channels[i] = fmt.Sprintf("chaos-%02d", i)
		verifiers[i] = &chaosVerifier{channel: channels[i], seen: make(map[string]bool)}
		sb.Subscribe(channels[i], verifiers[i].deliver)
		dir[channels[i]] = memberKeys
	}

	gwCfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: map[string]string{
				"ttl": "10m", "idle": "10m", "reqauth": "mac", "revokecheck": "resolve",
			}},
			{Name: middleware.StageAuthn},
			{Name: middleware.StageRateLimit, Params: map[string]string{"rate": "1000000", "burst": "1000000"}},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "10m"}},
			{Name: middleware.StageAudit, Params: map[string]string{"observer": "gateway-op"}},
			{Name: middleware.StageRetry, Params: map[string]string{"attempts": "3", "backoff": "1ms"}},
			{Name: middleware.StageBreaker, Params: map[string]string{"threshold": "5", "cooldown": "20ms"}},
		},
		Shards: cfg.Shards,
	}
	env := middleware.Env{CAKey: ca.PublicKey(), Directory: dir, Log: log, Revoker: ca}
	gw, err := middleware.NewGateway("chaos-gw", gwCfg, env, sb)
	if err != nil {
		return nil, err
	}

	grants := make(map[string]middleware.SessionGrant, len(members))
	for _, m := range members {
		hello, err := middleware.NewSessionHello(m, certs[m], keys[m])
		if err != nil {
			return nil, err
		}
		grant, err := gw.Sessions().Open(hello)
		if err != nil {
			return nil, err
		}
		grants[m] = grant
	}

	total := cfg.Submitters * cfg.Submissions
	revoked := members[len(members)-1]
	killAt, reviveAt := total/2, total*3/4

	var (
		counter    atomic.Int64 // global submission sequence driving fault triggers
		succeeded  atomic.Int64
		revokedRej atomic.Int64

		failMu sync.Mutex
		failed = map[string]int{}

		faultMu     sync.Mutex // serializes fault injections
		revokeOnce  sync.Once
		shardKilled bool
		shardAlive  = true
	)
	classify := func(err error) string {
		switch {
		case errors.Is(err, ordering.ErrNoQuorum):
			return "no-quorum"
		case errors.Is(err, middleware.ErrCircuitOpen):
			return "circuit-open"
		case errors.Is(err, middleware.ErrSessionRevoked):
			return "session-revoked"
		default:
			return "other"
		}
	}
	// Fault triggers run inline on the submitter that crosses the mark, so
	// the storm needs no side-channel timing; TryLock keeps slow injections
	// from serializing the whole storm behind one submitter.
	inject := func(n int64) {
		if !faultMu.TryLock() {
			return
		}
		defer faultMu.Unlock()
		if cfg.KillShard {
			if shardAlive && !shardKilled && n >= int64(killAt) {
				replicated[sb.ShardFor(channels[0])].Kill()
				shardKilled, shardAlive = true, false
			}
			if !shardAlive && n >= int64(reviveAt) {
				replicated[sb.ShardFor(channels[0])].Revive()
				shardAlive = true
			}
		}
		if cfg.KillLeaderEvery > 0 && n%int64(cfg.KillLeaderEvery) == 0 {
			ch := channels[int(n)%len(channels)]
			rs := replicated[sb.ShardFor(ch)]
			if dead, err := rs.CrashLeader(ch); err == nil {
				// Restart the dead node: it rejoins as a follower, so quorum
				// survives arbitrarily many kill rounds while leadership keeps
				// failing over.
				if c, cerr := rs.Cluster(ch); cerr == nil {
					_ = c.Restart(dead)
				}
			}
		}
		if cfg.RebalanceEvery > 0 && n%int64(cfg.RebalanceEvery) == 0 {
			_, _ = sb.Rebalance(2.0)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := members[w%len(members)]
			for i := 0; i < cfg.Submissions; i++ {
				n := counter.Add(1)
				inject(n)
				if cfg.RevokeMidStorm && m == revoked && i == cfg.Submissions/2 {
					revokeOnce.Do(func() { ca.Revoke(certs[revoked].Serial) })
				}
				req := &middleware.Request{
					Channel:      channels[(w+i)%len(channels)],
					Principal:    m,
					Payload:      []byte(fmt.Sprintf("chaos w%d i%d", w, i)),
					SessionToken: grants[m].Token,
				}
				middleware.MACRequest(req, grants[m].MacKey)
				err := gw.Submit(context.Background(), req)
				if err == nil {
					succeeded.Add(1)
					continue
				}
				failMu.Lock()
				failed[classify(err)+" @ "+req.Channel]++
				failMu.Unlock()
				if errors.Is(err, middleware.ErrSessionRevoked) && m == revoked {
					revokedRej.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()

	// Settle: revive anything still down, re-elect leaderless clusters, and
	// drain queues a mid-flush kill left behind.
	faultMu.Lock()
	if cfg.KillShard && !shardAlive {
		replicated[sb.ShardFor(channels[0])].Revive()
		shardAlive = true
	}
	faultMu.Unlock()
	for _, rs := range replicated {
		rs.ProbeHealth()
	}
	for _, ch := range channels {
		rs := replicated[sb.ShardFor(ch)]
		c, err := rs.Cluster(ch)
		if err != nil {
			continue
		}
		_ = c.Flush()
	}
	// Post-storm probe: every channel must accept traffic again (the
	// breaker may still be cooling down from a shard kill, so allow it the
	// configured cooldown).
	deadline := time.Now().Add(2 * time.Second)
	for _, ch := range channels {
		for {
			req := &middleware.Request{
				Channel:      ch,
				Principal:    members[0],
				Payload:      []byte("chaos recovery probe " + ch),
				SessionToken: grants[members[0]].Token,
			}
			middleware.MACRequest(req, grants[members[0]].MacKey)
			err := gw.Submit(context.Background(), req)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("experiments: channel %s did not recover after the storm: %w", ch, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	report := &ChaosReport{
		Submitted:       total,
		Succeeded:       int(succeeded.Load()),
		Failed:          failed,
		RevokedRejected: int(revokedRej.Load()),
		Migrations:      sb.Migrations(),
		Delivered:       make(map[string]int, len(channels)),
	}
	for _, rs := range replicated {
		report.Failovers += rs.Failovers()
	}
	for _, v := range verifiers {
		report.Delivered[v.channel] = v.txs
		v.mu.Lock()
		report.Violations = append(report.Violations, v.violations...)
		v.mu.Unlock()
	}
	sort.Strings(report.Violations)
	return report, nil
}

// FailedOnChannels returns the distinct channels named in the report's
// failure buckets — the blast radius of whatever chaos ran.
func (r *ChaosReport) FailedOnChannels() []string {
	seen := map[string]bool{}
	for key := range r.Failed {
		if i := strings.LastIndex(key, " @ "); i >= 0 {
			seen[key[i+3:]] = true
		}
	}
	out := make([]string, 0, len(seen))
	for ch := range seen {
		out = append(out, ch)
	}
	sort.Strings(out)
	return out
}
