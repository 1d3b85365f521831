package middleware

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
	"dltprivacy/internal/transport"
)

// Transport topics gateway endpoints serve.
const (
	// TopicSubmit carries signed client submissions.
	TopicSubmit = "gateway.submit"
	// TopicSessionOpen carries a signed SessionHello; the reply is a
	// marshalled SessionGrant.
	TopicSessionOpen = "session.open"
	// TopicSessionClose carries a session token to end; a token bound to
	// another connection is refused with ErrSessionBound.
	TopicSessionClose = "session.close"
	// TopicRevocationNotify is the admin topic signalling that the
	// revocation plane moved: the gateway pulls the delta from its
	// configured Revoker and applies it (session eviction, envelope member
	// exclusion). The payload is ignored; the notification carries no
	// authority of its own — all trust decisions come from the Revoker —
	// so it needs no authentication. The reply is a marshalled
	// RevocationNotice.
	TopicRevocationNotify = "revocation.notify"
	// TopicShardRebalance is the admin topic driving online channel
	// migration on a sharded ordering backend. The payload is an optional
	// marshalled RebalanceRequest: with Channel set, that channel migrates
	// to the requested shard; without one, the gateway runs a skew-driven
	// rebalancing pass over the per-shard load counters. The reply is a
	// marshalled RebalanceNotice listing the moves.
	TopicShardRebalance = "shard.rebalance"
)

// DefaultRebalanceSkew is the load-skew factor a shard.rebalance request
// without an explicit skew uses: shards loaded beyond this multiple of the
// mean shed channels.
const DefaultRebalanceSkew = 2.0

// RebalanceRequest asks a gateway to migrate ordering channels. Either a
// manual move (Channel + To) or an automatic pass (Skew, 0 meaning
// DefaultRebalanceSkew).
type RebalanceRequest struct {
	// Channel, when set, migrates that one channel to shard To.
	Channel string `json:"channel,omitempty"`
	// To is the target shard index for a manual move.
	To int `json:"to,omitempty"`
	// Skew is the load-skew factor for an automatic pass (> 1).
	Skew float64 `json:"skew,omitempty"`
}

// RebalanceNotice is the reply to a shard.rebalance request: the
// migrations performed (empty when the topology was already balanced).
type RebalanceNotice struct {
	Migrations []ordering.Migration `json:"migrations"`
}

// RevocationNotice is the reply to a revocation.notify request: what the
// triggered sync did.
type RevocationNotice struct {
	// Epoch is the revocation epoch the gateway is now synced to.
	Epoch uint64 `json:"epoch"`
	// SessionsRevoked is how many sessions this sync evicted.
	SessionsRevoked int `json:"sessionsRevoked"`
}

// Gateway fronts the platform backends: every submission runs through the
// configured chain, the terminal handler turns it into a ledger
// transaction and submits it to the ordering backend, and cut blocks are
// relayed to the platform adapters bound per channel. Safe for concurrent
// use.
type Gateway struct {
	name  string
	chain *Chain
	// codec is the wire codec the gateway offers (CodecJSON or
	// CodecBinary); JSON submissions are always accepted, binary frames
	// only when the gateway runs CodecBinary.
	codec   string
	orderer ordering.Backend
	// sharded is the orderer downcast to its sharded form, nil for
	// unsharded deployments; Stats snapshots per-shard counters from it.
	sharded *ordering.ShardedBackend
	now     func() time.Time
	// revoker is the revocation plane SyncRevocations pulls deltas from;
	// nil when the deployment runs without one. auditLog receives the
	// revocation audit trail (may be nil).
	revoker  Revoker
	auditLog *audit.Log

	// tracer samples submissions into a bounded trace ring (Config.Trace);
	// nil when tracing is off — every tracer method is nil-receiver safe,
	// so the untraced gateway pays one nil check per submission.
	tracer *telemetry.Tracer

	submitted atomic.Uint64 // requests accepted by the chain
	ordered   atomic.Uint64 // transactions handed to the orderer
	rejected  atomic.Uint64 // requests refused by any stage

	revMu    sync.Mutex // serializes SyncRevocations' delta cursor
	revEpoch uint64     // last revocation epoch applied to the encrypt stage
	sweeps   atomic.Uint64
	// unsubscribe detaches the RevocationSource push subscription; set at
	// construction, consumed by Close. Guarded by revMu.
	unsubscribe func()

	mu       sync.Mutex
	backends map[string][]Backend       // channel -> bound adapters
	bound    map[string]map[string]bool // channel -> backend name -> subscribed
	commits  map[string]*backendCounters
}

type backendCounters struct {
	blocks atomic.Uint64
	txs    atomic.Uint64
	errors atomic.Uint64
}

// BackendStats is a snapshot of one bound backend's commit counters.
type BackendStats struct {
	Name   string
	Blocks uint64
	Txs    uint64
	Errors uint64
}

// GatewayStats is a snapshot of the gateway's counters.
type GatewayStats struct {
	// Submitted counts requests the chain accepted (batched requests are
	// accepted when buffered).
	Submitted uint64
	// Ordered counts transactions handed to the ordering backend.
	Ordered uint64
	// Rejected counts requests refused by any stage.
	Rejected uint64
	// Stages holds per-stage counters in chain order.
	Stages []StageStats
	// Backends holds per-backend commit counters.
	Backends []BackendStats
	// Shards holds per-shard routing counters when the ordering backend is
	// sharded; nil otherwise.
	Shards []ordering.ShardStats
	// Sessions snapshots the session manager's lifecycle counters; nil when
	// the pipeline has no session stage.
	Sessions *SessionStats
	// KeyEpochsRotated counts the encrypt stage's data-key epoch installs;
	// 0 when the pipeline has no encrypt stage or no key cache.
	KeyEpochsRotated uint64
	// SessionsRevoked counts sessions evicted because their certificate
	// was revoked (a view of Sessions.Revoked, surfaced beside the other
	// revocation counters).
	SessionsRevoked uint64
	// KeyEpochsRevokedRotations counts cached channel data keys the
	// encrypt stage invalidated because a wrapped member was revoked; each
	// forces a fresh epoch the revoked member cannot unwrap.
	KeyEpochsRevokedRotations uint64
	// RevocationSweeps counts revocation syncs the gateway ran (push
	// notifications from a RevocationSource plus revocation.notify admin
	// requests plus direct SyncRevocations calls).
	RevocationSweeps uint64
	// TracesSampled counts requests recorded into the trace ring over the
	// gateway's lifetime; 0 when tracing is off.
	TracesSampled uint64
	// BatchGroupsSealed counts group envelopes the batch stage released in
	// group-seal mode; BatchGroupTxs the member transactions inside them;
	// BatchPending the submissions currently buffered. All 0 without a
	// batch stage (and the first two outside group-seal mode).
	BatchGroupsSealed uint64
	BatchGroupTxs     uint64
	BatchPending      int
	// AuditShed counts leakage observations dropped because the audit
	// stage's async ring was full; AuditRingPending the observations
	// enqueued but not yet recorded. Both 0 without an async audit ring.
	AuditShed        uint64
	AuditRingPending uint64
}

// NewGateway builds the configured chain and fronts it with the ordering
// backend. Misconfiguration fails here, before any traffic. A sharded
// backend is accepted transparently — it implements ordering.Backend — but
// when cfg.Shards declares a topology the backend must actually be an
// ordering.ShardedBackend with that many shards, and cfg.ShardPins is
// installed on it before any channel carries traffic.
func NewGateway(name string, cfg Config, env Env, orderer ordering.Backend) (*Gateway, error) {
	if name == "" {
		name = "gateway"
	}
	if orderer == nil {
		return nil, fmt.Errorf("%w: gateway needs an ordering backend", ErrBadConfig)
	}
	// With no injected clock the gateway runs coarseNow, but env.Now stays
	// nil into cfg.Build: each stage constructor adopts the default clock
	// itself and — crucially — KNOWS it did (defaultClock), which is what
	// lets the session stage's per-request reading ride req.nowStamp into
	// the encrypt stage instead of every stage reading the clock again.
	// Materializing coarseNow here would make the stages see an injected
	// clock and disable that sharing.
	gwNow := env.Now
	if gwNow == nil {
		gwNow = coarseNow
	}
	sharded, _ := orderer.(*ordering.ShardedBackend)
	if cfg.Shards > 0 {
		if sharded == nil {
			return nil, fmt.Errorf("%w: config declares %d ordering shards but the backend is not sharded", ErrBadConfig, cfg.Shards)
		}
		if got := sharded.Shards(); got != cfg.Shards {
			return nil, fmt.Errorf("%w: config declares %d ordering shards, backend has %d", ErrBadConfig, cfg.Shards, got)
		}
		for channel, shard := range cfg.ShardPins {
			if err := sharded.Pin(channel, shard); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
			}
		}
	}
	codec := cfg.Codec
	if codec == "" {
		codec = CodecJSON
	}
	g := &Gateway{
		name:     name,
		codec:    codec,
		orderer:  orderer,
		sharded:  sharded,
		now:      gwNow,
		revoker:  env.Revoker,
		auditLog: env.Log,
		backends: make(map[string][]Backend),
		bound:    make(map[string]map[string]bool),
		commits:  make(map[string]*backendCounters),
	}
	chain, err := cfg.Build(env, g.order)
	if err != nil {
		return nil, err
	}
	g.chain = chain
	if every, err := cfg.traceEvery(); err != nil {
		return nil, err
	} else if every > 0 {
		g.tracer = telemetry.NewTracer(every, 0)
	}
	// A push-capable revocation plane drives the gateway directly: every
	// Revoke lands as a sync, so sessions die and key epochs rotate without
	// waiting for a sweep interval or an admin notification. Close detaches
	// the subscription; gateways shorter-lived than their revocation source
	// must be closed or the source keeps pushing into them forever.
	if src, ok := g.revoker.(RevocationSource); ok {
		g.unsubscribe = src.OnRevoke(func(pki.Revocation) { g.SyncRevocations() })
	}
	return g, nil
}

// Close releases the gateway's push subscription on its revocation source,
// if any, and drains the audit stage's async ring: every leakage
// observation enqueued before Close returns is recorded. Idempotent; the
// gateway still serves traffic afterwards — it just stops receiving
// revocation pushes, and later audit observations record inline.
func (g *Gateway) Close() {
	g.revMu.Lock()
	unsub := g.unsubscribe
	g.unsubscribe = nil
	g.revMu.Unlock()
	if unsub != nil {
		unsub()
	}
	if a, ok := g.chain.stage(StageAudit).(*Audit); ok && a != nil {
		a.Close()
	}
}

// SyncRevocations pulls the revocation delta from the configured Revoker
// and applies it across the gateway: newly revoked identity certificates
// are excluded from envelope encryption (invalidating any cached channel
// key they could unwrap), the session manager sweeps sessions rooted in
// revoked certificates, and the revocation trail lands in the audit log.
// It returns how many sessions were evicted. Trivial without a Revoker.
// Safe for concurrent use; it is invoked by RevocationSource pushes, the
// revocation.notify admin topic, and directly by embedders.
func (g *Gateway) SyncRevocations() int {
	if g.revoker == nil {
		return 0
	}
	// revMu is held across the whole application, not just the cursor
	// advance: a concurrent sync must not observe the new epoch while the
	// encrypt exclusions for it are still pending, or its empty-delta
	// reply would claim a revocation is applied that is not. All the work
	// is in-memory, so the critical section stays cheap.
	g.revMu.Lock()
	defer g.revMu.Unlock()
	revs, version := g.revoker.RevokedSince(g.revEpoch)
	g.revEpoch = version
	enc, _ := g.chain.stage(StageEncrypt).(*Encrypt)
	for _, rev := range revs {
		// Only a revocation that withdraws the identity's standing excludes
		// it from envelopes: one-time certs never carried channel
		// membership, and a superseded-cert revocation (the key-rotation
		// flow: re-enroll, then revoke the old serial) withdraws one
		// certificate while the identity remains a member in good standing.
		if enc != nil && rev.Kind == pki.KindIdentity && rev.Identity != "" && !rev.Superseded {
			enc.RevokeMember(rev.Identity)
		}
		// The audit trail records that the gateway operator learned of the
		// revocation: who lost trust and at which epoch.
		g.auditLog.Record(g.name, audit.ClassIdentity,
			fmt.Sprintf("revoked:%s#%d@%d", rev.Identity, rev.Serial, rev.Epoch))
	}
	evicted := 0
	if mgr := g.Sessions(); mgr != nil {
		evicted = mgr.SweepRevoked()
	}
	g.sweeps.Add(1)
	return evicted
}

// ReadmitMember lifts the envelope exclusion of a previously revoked
// identity — the operator path for an identity revoked outright and later
// re-enrolled under a fresh certificate (its channels re-key to include it
// on their next submission). A no-op without an encrypt stage or for
// identities never excluded.
func (g *Gateway) ReadmitMember(identity string) {
	if e, ok := g.chain.stage(StageEncrypt).(*Encrypt); ok && e != nil {
		e.ReadmitMember(identity)
	}
}

// RevocationEpoch reports the last revocation epoch SyncRevocations
// applied.
func (g *Gateway) RevocationEpoch() uint64 {
	g.revMu.Lock()
	defer g.revMu.Unlock()
	return g.revEpoch
}

// Name returns the gateway's principal name.
func (g *Gateway) Name() string { return g.name }

// order is the terminal handler: build the ledger transaction and submit
// it for ordering.
func (g *Gateway) order(ctx context.Context, req *Request) error {
	meta := req.Meta
	if req.metaOwned && meta != nil {
		// The batch stage built this map for its release vehicle and no
		// caller holds it: annotate in place instead of copying.
		meta["gateway"] = g.name
	} else {
		meta = make(map[string]string, len(req.Meta)+1)
		for k, v := range req.Meta {
			meta[k] = v
		}
		meta["gateway"] = g.name
	}
	payload := req.Payload
	if req.borrowed && !req.encrypted {
		// The orderer keeps the payload; an encrypted one is a fresh
		// envelope, a borrowed plaintext is the caller's reused buffer.
		payload = bytes.Clone(payload)
	}
	tx := ledger.Transaction{
		Channel:   req.Channel,
		Creator:   req.Principal,
		Payload:   payload,
		Meta:      meta,
		Timestamp: g.now(),
	}
	if err := g.orderer.Submit(tx); err != nil {
		return fmt.Errorf("gateway %s: order: %w", g.name, err)
	}
	req.Tx = tx
	g.ordered.Add(1)
	return nil
}

// Submit runs one request through the chain. A nil return means the
// request was accepted: either ordered, or buffered by the batch stage for
// a later group release. When tracing is configured the request may be
// sampled (always, if it arrived with a wire-carried TraceID) and its
// per-stage spans recorded into the trace ring; the unsampled path costs
// one atomic increment, tracing off one nil check.
func (g *Gateway) Submit(ctx context.Context, req *Request) error {
	tr := g.tracer.For(req.TraceID)
	if tr != nil {
		req.trace = tr
		req.TraceID = tr.ID
	}
	err := g.chain.Execute(ctx, req)
	g.tracer.Finish(tr, err)
	if err != nil {
		g.rejected.Add(1)
		return err
	}
	g.submitted.Add(1)
	return nil
}

// SubmitFuture is the completion handle SubmitAsync returns: it resolves
// with the request's delivery outcome — immediately for requests ordered
// or rejected inline, at group release for requests the batch stage
// buffered. Wait may be called repeatedly; the first resolution sticks.
type SubmitFuture struct {
	ch chan error

	mu       sync.Mutex
	resolved bool
	err      error
}

// Wait blocks until the submission's delivery outcome is known or ctx is
// done. A nil return means the request was ordered (or delivered through
// its group); a batched member whose group release failed gets the
// ErrBatchRelease-wrapped group error.
func (f *SubmitFuture) Wait(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.resolved {
		return f.err
	}
	select {
	case err := <-f.ch:
		f.resolved, f.err = true, err
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitAsync runs one request through the chain and returns a completion
// future instead of coupling the caller to the group release: a request
// the batch stage buffers is acknowledged immediately (nil error, like
// Submit) and its future resolves when its group is released — letting
// submitters pipeline a whole batch and then collect outcomes, instead of
// blocking a round-trip per transaction. Requests rejected or ordered
// inline resolve their future before SubmitAsync returns. The returned
// error mirrors Submit (nil means accepted).
func (g *Gateway) SubmitAsync(ctx context.Context, req *Request) (*SubmitFuture, error) {
	req.done = make(chan error, 1)
	f := &SubmitFuture{ch: req.done}
	err := g.Submit(ctx, req)
	if !req.buffered {
		// Never reached a holding stage: the outcome is already final.
		// Buffered requests resolve at release (the batch stage owns their
		// completion — including the filling request, whose release ran
		// inside this Submit call).
		req.complete(err)
	}
	return f, err
}

// Tracer returns the gateway's request tracer, nil when Config.Trace is
// off. The handle /tracez serves from.
func (g *Gateway) Tracer() *telemetry.Tracer { return g.tracer }

// Flush releases any partially-filled batch or aggregation group
// downstream, then waits for the audit stage's async ring (if any) to
// catch up, so after Flush returns every accepted submission is ordered
// AND its leakage observation recorded. Gateways without a holding stage
// flush trivially.
func (g *Gateway) Flush(ctx context.Context) error {
	var err error
	if b, ok := g.chain.stage(StageBatch).(*Batch); ok && b != nil {
		err = b.Flush(ctx)
	} else if a, ok := g.chain.stage(StageAggregate).(*Aggregate); ok && a != nil {
		err = a.Flush(ctx)
	}
	if a, ok := g.chain.stage(StageAudit).(*Audit); ok && a != nil {
		a.Flush()
	}
	return err
}

// Backend is a platform adapter the gateway relays ordered blocks into:
// the bridge from the confidentiality pipeline to Fabric, Corda, or Quorum
// native submission paths.
type Backend interface {
	Name() string
	// Commit applies one ordered block to the platform.
	Commit(b ledger.Block) error
}

// Bind subscribes the backends to the channel's block stream. Each cut
// block is committed to every bound backend; the first failing backend
// aborts delivery and surfaces the error to the submitting request (which
// is what the breaker and retry stages act on). Re-binding is idempotent
// BY NAME: a backend whose Name() is already bound to the channel is
// skipped — including a different instance under the same name — so
// reconnect paths cannot register a second orderer subscription and
// double-commit every block. Adapters that reconnect should keep the
// connection inside one long-lived instance rather than re-Bind a new one.
func (g *Gateway) Bind(channel string, backends ...Backend) {
	g.mu.Lock()
	defer g.mu.Unlock()
	names := g.bound[channel]
	if names == nil {
		names = make(map[string]bool)
		g.bound[channel] = names
	}
	for _, b := range backends {
		if names[b.Name()] {
			continue
		}
		names[b.Name()] = true
		g.backends[channel] = append(g.backends[channel], b)
		ctr, ok := g.commits[b.Name()]
		if !ok {
			ctr = &backendCounters{}
			g.commits[b.Name()] = ctr
		}
		b := b
		g.orderer.Subscribe(channel, func(blk ledger.Block) error {
			if err := b.Commit(blk); err != nil {
				ctr.errors.Add(1)
				return fmt.Errorf("backend %s: %w", b.Name(), err)
			}
			ctr.blocks.Add(1)
			ctr.txs.Add(uint64(len(blk.Txs)))
			return nil
		})
	}
}

// Bound returns the adapters bound to a channel.
func (g *Gateway) Bound(channel string) []Backend {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]Backend(nil), g.backends[channel]...)
}

// Sharded exposes the sharded ordering backend this gateway fronts, nil
// for unsharded deployments. Admin surfaces (the shard.rebalance topic,
// operational tooling, the chaos harness) use it to migrate channels and
// read per-shard counters.
func (g *Gateway) Sharded() *ordering.ShardedBackend { return g.sharded }

// Stats snapshots gateway, per-stage, and per-backend counters.
func (g *Gateway) Stats() GatewayStats {
	stats := GatewayStats{
		Submitted: g.submitted.Load(),
		Ordered:   g.ordered.Load(),
		Rejected:  g.rejected.Load(),
		Stages:    g.chain.Stats(),
	}
	if g.sharded != nil {
		stats.Shards = g.sharded.Stats()
	}
	if mgr := g.Sessions(); mgr != nil {
		ss := mgr.Stats()
		stats.Sessions = &ss
		stats.SessionsRevoked = ss.Revoked
	}
	if e, ok := g.chain.stage(StageEncrypt).(*Encrypt); ok && e != nil {
		stats.KeyEpochsRotated = e.Rotations()
		stats.KeyEpochsRevokedRotations = e.RevokedRotations()
	}
	stats.RevocationSweeps = g.sweeps.Load()
	stats.TracesSampled = g.tracer.Sampled()
	if b, ok := g.chain.stage(StageBatch).(*Batch); ok && b != nil {
		stats.BatchGroupsSealed = b.GroupsSealed()
		stats.BatchGroupTxs = b.GroupTxs()
		stats.BatchPending = b.Pending()
	}
	if a, ok := g.chain.stage(StageAudit).(*Audit); ok && a != nil {
		stats.AuditShed = a.Shed()
		stats.AuditRingPending = a.RingPending()
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for name, ctr := range g.commits {
		stats.Backends = append(stats.Backends, BackendStats{
			Name:   name,
			Blocks: ctr.blocks.Load(),
			Txs:    ctr.txs.Load(),
			Errors: ctr.errors.Load(),
		})
	}
	return stats
}

// RegisterMetrics registers every subsystem the gateway fronts into reg
// under the confmw_* naming scheme: per-stage chain telemetry, gateway
// submission counters, session lifecycle, encrypt key epochs, revocation
// plane, per-shard routing, backend commit aggregates, and trace sampling.
// Call once per gateway per registry, before serving /metrics.
func (g *Gateway) RegisterMetrics(reg *telemetry.Registry) error {
	if err := g.chain.RegisterMetrics(reg); err != nil {
		return err
	}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"confmw_gateway_submitted_total", "Requests accepted by the chain.", g.submitted.Load},
		{"confmw_gateway_ordered_total", "Transactions handed to the ordering backend.", g.ordered.Load},
		{"confmw_gateway_rejected_total", "Requests refused by a stage.", g.rejected.Load},
		{"confmw_revocation_sweeps_total", "Revocation syncs the gateway applied.", g.sweeps.Load},
		{"confmw_traces_sampled_total", "Requests recorded into the trace ring.", g.tracer.Sampled},
	} {
		if err := reg.CounterFunc(c.name, c.help, c.fn); err != nil {
			return err
		}
	}
	if err := reg.GaugeFunc("confmw_revocation_epoch",
		"Last revocation epoch applied.", func() float64 { return float64(g.RevocationEpoch()) }); err != nil {
		return err
	}
	if mgr := g.Sessions(); mgr != nil {
		if err := mgr.RegisterMetrics(reg); err != nil {
			return err
		}
	}
	if e, ok := g.chain.stage(StageEncrypt).(*Encrypt); ok && e != nil {
		if err := reg.CounterFunc("confmw_key_epochs_rotated_total",
			"Channel data-key epoch installs by the encrypt stage.", e.Rotations); err != nil {
			return err
		}
		if err := reg.CounterFunc("confmw_key_epochs_revoked_rotations_total",
			"Cached channel keys invalidated because a wrapped member was revoked.", e.RevokedRotations); err != nil {
			return err
		}
	}
	if g.sharded != nil {
		if err := g.sharded.RegisterMetrics(reg); err != nil {
			return err
		}
	}
	if b, ok := g.chain.stage(StageBatch).(*Batch); ok && b != nil {
		if err := reg.CounterFunc("confmw_batch_groups_sealed_total",
			"Group envelopes released by the batch stage (group-seal mode).", b.GroupsSealed); err != nil {
			return err
		}
		if err := reg.CounterFunc("confmw_batch_group_txs_total",
			"Member transactions released inside group envelopes.", b.GroupTxs); err != nil {
			return err
		}
		if err := reg.GaugeFunc("confmw_batch_pending",
			"Submissions currently buffered by the batch stage.",
			func() float64 { return float64(b.Pending()) }); err != nil {
			return err
		}
	}
	if a, ok := g.chain.stage(StageAudit).(*Audit); ok && a != nil && a.Async() {
		for _, c := range []struct {
			name, help string
			fn         func() uint64
		}{
			{"confmw_audit_enqueued_total", "Leakage observations accepted into the audit ring.", a.Enqueued},
			{"confmw_audit_drained_total", "Leakage observations the audit drainer recorded.", a.Drained},
			{"confmw_audit_shed_total", "Leakage observations dropped because the audit ring was full.", a.Shed},
		} {
			if err := reg.CounterFunc(c.name, c.help, c.fn); err != nil {
				return err
			}
		}
		if err := reg.GaugeFunc("confmw_audit_ring_pending",
			"Leakage observations enqueued but not yet recorded.",
			func() float64 { return float64(a.RingPending()) }); err != nil {
			return err
		}
	}
	// Backend commit counters aggregate over bound adapters: Bind is
	// dynamic, so the scrape sums the commit table instead of registering
	// per-backend series up front.
	sum := func(pick func(*backendCounters) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			g.mu.Lock()
			for _, ctr := range g.commits {
				n += pick(ctr)
			}
			g.mu.Unlock()
			return n
		}
	}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"confmw_backend_committed_blocks_total", "Blocks committed across bound platform backends.",
			sum(func(c *backendCounters) uint64 { return c.blocks.Load() })},
		{"confmw_backend_committed_txs_total", "Transactions committed across bound platform backends.",
			sum(func(c *backendCounters) uint64 { return c.txs.Load() })},
		{"confmw_backend_commit_errors_total", "Failed block commits across bound platform backends.",
			sum(func(c *backendCounters) uint64 { return c.errors.Load() })},
	} {
		if err := reg.CounterFunc(c.name, c.help, c.fn); err != nil {
			return err
		}
	}
	return nil
}

// Sessions returns the session manager of the chain's session stage, or
// nil when the pipeline has no session stage.
func (g *Gateway) Sessions() *SessionManager {
	if s, ok := g.chain.stage(StageSession).(*Session); ok && s != nil {
		return s.Manager()
	}
	return nil
}

// RotateChannelKey forces the encrypt stage onto a fresh data-key epoch
// for the channel (e.g. after revoking a member's certificate). A no-op
// when the pipeline has no encrypt stage or no key cache.
func (g *Gateway) RotateChannelKey(channel string) {
	if e, ok := g.chain.stage(StageEncrypt).(*Encrypt); ok && e != nil {
		e.Rotate(channel)
	}
}

// wireRequest is the form a transport client submits — JSON by default,
// or the binary v2 framing on a binary-codec gateway. Session-bound
// submissions carry the token instead of a certificate; the cert is a
// pointer so it is genuinely absent from their wire bytes. MAC carries the
// per-session HMAC under reqauth=mac.
type wireRequest struct {
	Channel   string            `json:"channel"`
	Principal string            `json:"principal"`
	Backend   string            `json:"backend,omitempty"`
	Payload   []byte            `json:"payload"`
	Cert      *pki.Certificate  `json:"cert,omitempty"`
	Sig       dcrypto.Signature `json:"sig"`
	MAC       []byte            `json:"mac,omitempty"`
	Session   string            `json:"session,omitempty"`
	Meta      map[string]string `json:"meta,omitempty"`
	// TraceID propagates a sampled trace across the wire hop; zero (the
	// common case) is omitted from both framings. Not covered by the
	// request signature, like the session token: it annotates delivery.
	TraceID uint64 `json:"trace,omitempty"`
}

// ServeWire handles one wire message against the gateway: the shared
// topic dispatch behind every transport front (the in-process substrate
// via AttachTransport, the TCP edge via netedge.Server). transportID names
// the connection the message arrived on — transports with per-connection
// identity pass it so sessions opened here are bound to the connection and
// submissions and closes resolve against that binding; transports without
// one pass "" and sessions stay unbound. The payload slice is only
// borrowed: binary submissions alias it zero-copy during the chain run, but
// nothing retains it past return (the encrypt stage replaces the payload
// before any holding stage buffers the request), so stream transports may
// reuse their read buffer for the next frame.
func (g *Gateway) ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	switch topic {
	case TopicSubmit:
		var w wireRequest
		if isBinaryFrame(payload) {
			if g.codec != CodecBinary {
				return nil, fmt.Errorf("gateway %s: binary codec not enabled", g.name)
			}
			var err error
			if w, err = decodeWireRequestBinary(payload); err != nil {
				return nil, fmt.Errorf("gateway %s: decode request: %w", g.name, err)
			}
		} else if err := json.Unmarshal(payload, &w); err != nil {
			return nil, fmt.Errorf("gateway %s: decode request: %w", g.name, err)
		}
		req := &Request{
			Channel:      w.Channel,
			Principal:    w.Principal,
			Backend:      w.Backend,
			Payload:      w.Payload,
			Sig:          w.Sig,
			MAC:          w.MAC,
			SessionToken: w.Session,
			Meta:         w.Meta,
			TraceID:      w.TraceID,
			TransportID:  transportID,
			// The binary decode views payload; JSON decodes into fresh
			// memory.
			borrowed: isBinaryFrame(payload),
		}
		if w.Cert != nil {
			req.Cert = *w.Cert
		}
		// The ID covers the payload as submitted; the encrypt stage
		// replaces it, so capture before running the chain.
		id := req.ID()
		if err := g.Submit(ctx, req); err != nil {
			return nil, err
		}
		return []byte(id), nil
	case TopicSessionOpen:
		mgr := g.Sessions()
		if mgr == nil {
			return nil, fmt.Errorf("gateway %s: pipeline has no session stage", g.name)
		}
		var hello SessionHello
		if err := json.Unmarshal(payload, &hello); err != nil {
			return nil, fmt.Errorf("gateway %s: decode hello: %w", g.name, err)
		}
		// A hello carrying a trace ID joins the client's sampled flow:
		// the handshake is recorded as its own trace in the ring.
		var tr *telemetry.Trace
		if hello.TraceID != 0 {
			tr = g.tracer.For(hello.TraceID)
		}
		grant, err := mgr.OpenBound(hello, transportID)
		if tr != nil {
			d := time.Since(tr.Start)
			tr.AddSpan("session.open", tr.Start, d, d, err)
			g.tracer.Finish(tr, err)
		}
		if err != nil {
			return nil, err
		}
		// Codec negotiation: the session gets binary framing only when
		// the client asked for it AND the gateway offers it; everything
		// else downgrades to JSON, which every gateway accepts.
		grant.Codec = CodecJSON
		if hello.Codec == CodecBinary && g.codec == CodecBinary {
			grant.Codec = CodecBinary
		}
		b, err := json.Marshal(grant)
		if err != nil {
			return nil, fmt.Errorf("gateway %s: encode grant: %w", g.name, err)
		}
		return b, nil
	case TopicSessionClose:
		mgr := g.Sessions()
		if mgr == nil {
			return nil, fmt.Errorf("gateway %s: pipeline has no session stage", g.name)
		}
		if err := mgr.CloseBound(string(payload), transportID); err != nil {
			return nil, fmt.Errorf("gateway %s: session close: %w", g.name, err)
		}
		return []byte("ok"), nil
	case TopicRevocationNotify:
		if g.revoker == nil {
			return nil, fmt.Errorf("gateway %s: no revocation plane configured", g.name)
		}
		evicted := g.SyncRevocations()
		b, err := json.Marshal(RevocationNotice{Epoch: g.RevocationEpoch(), SessionsRevoked: evicted})
		if err != nil {
			return nil, fmt.Errorf("gateway %s: encode revocation notice: %w", g.name, err)
		}
		return b, nil
	case TopicShardRebalance:
		if g.sharded == nil {
			return nil, fmt.Errorf("gateway %s: ordering backend is not sharded", g.name)
		}
		var req RebalanceRequest
		if len(payload) > 0 {
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, fmt.Errorf("gateway %s: decode rebalance request: %w", g.name, err)
			}
		}
		var moves []ordering.Migration
		if req.Channel != "" {
			from := g.sharded.ShardFor(req.Channel)
			if err := g.sharded.Migrate(req.Channel, req.To); err != nil {
				return nil, fmt.Errorf("gateway %s: %w", g.name, err)
			}
			if from != req.To {
				moves = []ordering.Migration{{Channel: req.Channel, From: from, To: req.To}}
			}
		} else {
			skew := req.Skew
			if skew == 0 {
				skew = DefaultRebalanceSkew
			}
			var err error
			moves, err = g.sharded.Rebalance(skew)
			if err != nil {
				return nil, fmt.Errorf("gateway %s: %w", g.name, err)
			}
		}
		b, err := json.Marshal(RebalanceNotice{Migrations: moves})
		if err != nil {
			return nil, fmt.Errorf("gateway %s: encode rebalance notice: %w", g.name, err)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("gateway %s: unknown topic %q", g.name, topic)
	}
}

// AttachTransport registers the gateway as a network endpoint serving
// TopicSubmit, TopicSessionOpen, and TopicSessionClose. The reply to an
// accepted submission is its request ID (batched submissions are
// acknowledged before a transaction exists); to an accepted handshake, a
// marshalled SessionGrant. Requests run under the caller's ctx, so
// server-side deadlines and cancellation reach the chain. The in-process
// substrate has no per-connection identity, so sessions opened through it
// stay unbound (see ServeWire and the TCP edge for bound sessions).
func (g *Gateway) AttachTransport(ctx context.Context, net *transport.Network, endpoint string) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return net.Register(endpoint, func(msg transport.Message) ([]byte, error) {
		return g.ServeWire(ctx, msg.Topic, msg.Payload, "")
	})
}

// SubmitOver sends a signed request to a gateway endpoint over the network
// substrate (JSON framing) and returns the gateway's submission ID.
func SubmitOver(net *transport.Network, from, endpoint string, req *Request) (string, error) {
	return SubmitOverCodec(net, from, endpoint, req, CodecJSON)
}

// SubmitOverCodec is SubmitOver with an explicit wire codec — pass the
// codec the session grant negotiated. Binary framing needs a binary-codec
// gateway; JSON is accepted everywhere.
func SubmitOverCodec(net *transport.Network, from, endpoint string, req *Request, codec string) (string, error) {
	b, err := EncodeWireRequest(req, codec)
	if err != nil {
		return "", fmt.Errorf("middleware: encode request: %w", err)
	}
	reply, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicSubmit, Payload: b})
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// OpenSessionOver performs the signed session handshake with a gateway
// endpoint over the network substrate: full authn is paid once here, and
// the returned grant's token rides on every subsequent submission.
func OpenSessionOver(net *transport.Network, from, endpoint string, cert pki.Certificate, key *dcrypto.PrivateKey) (SessionGrant, error) {
	return OpenSessionOverCodec(net, from, endpoint, cert, key, "")
}

// OpenSessionOverCodec is OpenSessionOver asking for a wire codec; the
// grant reports the codec the gateway actually offers (and, on a
// reqauth=mac gateway, the session MAC key for MACRequest).
func OpenSessionOverCodec(net *transport.Network, from, endpoint string, cert pki.Certificate, key *dcrypto.PrivateKey, codec string) (SessionGrant, error) {
	hello, err := NewSessionHello(from, cert, key)
	if err != nil {
		return SessionGrant{}, err
	}
	hello.Codec = codec
	b, err := json.Marshal(hello)
	if err != nil {
		return SessionGrant{}, fmt.Errorf("middleware: encode hello: %w", err)
	}
	reply, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicSessionOpen, Payload: b})
	if err != nil {
		return SessionGrant{}, err
	}
	var grant SessionGrant
	if err := json.Unmarshal(reply, &grant); err != nil {
		return SessionGrant{}, fmt.Errorf("middleware: decode grant: %w", err)
	}
	return grant, nil
}

// CloseSessionOver ends a session at a gateway endpoint.
func CloseSessionOver(net *transport.Network, from, endpoint, token string) error {
	_, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicSessionClose, Payload: []byte(token)})
	return err
}

// NotifyRevocationOver tells a gateway endpoint that the revocation plane
// moved; the gateway pulls and applies the delta and reports what it did.
// The path for deployments whose CA runs out of process, where the
// in-process push subscription cannot reach.
func NotifyRevocationOver(net *transport.Network, from, endpoint string) (RevocationNotice, error) {
	reply, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicRevocationNotify})
	if err != nil {
		return RevocationNotice{}, err
	}
	var notice RevocationNotice
	if err := json.Unmarshal(reply, &notice); err != nil {
		return RevocationNotice{}, fmt.Errorf("middleware: decode revocation notice: %w", err)
	}
	return notice, nil
}

// RebalanceOver drives shard.rebalance at a gateway endpoint over the
// network substrate: a manual channel migration when req.Channel is set,
// or a skew-driven pass otherwise. Returns the moves the gateway made.
func RebalanceOver(net *transport.Network, from, endpoint string, req RebalanceRequest) (RebalanceNotice, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return RebalanceNotice{}, fmt.Errorf("middleware: encode rebalance request: %w", err)
	}
	reply, err := net.Send(transport.Message{From: from, To: endpoint, Topic: TopicShardRebalance, Payload: b})
	if err != nil {
		return RebalanceNotice{}, err
	}
	var notice RebalanceNotice
	if err := json.Unmarshal(reply, &notice); err != nil {
		return RebalanceNotice{}, fmt.Errorf("middleware: decode rebalance notice: %w", err)
	}
	return notice, nil
}
