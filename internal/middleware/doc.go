// Package middleware composes the library's confidentiality mechanisms into
// a single configurable pipeline, the subsystem the paper's title promises:
// a middleware through which enterprise clients submit transactions without
// hand-wiring PKI, envelope encryption, leakage accounting, and platform
// backends themselves.
//
// The building block is a Stage: an interceptor with a Name and a
// Handle(ctx, req, next) method. Stages compose into a Chain ending in a
// terminal Handler (normally the Gateway's submit-to-ordering step). A
// declarative Config — an ordered list of named stages with string
// parameters, in the spirit of Django middleware lists and Traefik
// middleware blocks — assembles a chain via Build, so deployments choose
// their confidentiality posture by configuration, not code.
//
// # Stage ordering rules
//
// Build validates stage order at construction time; a misconfigured
// pipeline is an error before the first transaction, never a silent leak:
//
//   - Stage names must be known and appear at most once.
//   - "session" must precede "authn" when both are present: token-bearing
//     requests short-circuit the full PKI check, so the cheap path must
//     run first.
//   - "encrypt" needs "authn" or "session" before it: an envelope must
//     never be sealed for a submission whose origin was not verified,
//     otherwise the pipeline would launder unauthenticated payloads into
//     member-only ciphertext.
//   - "authn" and "session" must precede "ratelimit" when present:
//     buckets are keyed by principal, and throttling unverified names lets
//     one client starve another by spoofing its identity.
//   - "retry" must precede "breaker" when both are present: each retry
//     attempt must consult the breaker, so a tripped backend fails fast
//     instead of being hammered by the retry loop.
//   - "batch" must be the final stage: it hands aggregated submissions
//     directly to the terminal handler, and any stage after it would be
//     skipped for batched requests.
//
// These rules are not a hard-coded matrix: each stage declares its own
// constraints when it registers (see "Extending the pipeline" below), and
// validate applies whatever the registry holds. StageUsage renders the
// full current rule set.
//
// The built-in stages are session (token-bound amortized authentication,
// below), authn (submitter certificate + signature verification against
// the consortium CA), encrypt (per-channel envelope encryption to member
// keys, optionally with an epoch key cache, below), audit (leakage
// accounting into internal/audit), ratelimit (token bucket per principal,
// with idle buckets evicted once they would have refilled completely),
// retry (bounded backoff on transient transport errors), breaker
// (per-backend circuit breaker; requests with no backend share a
// per-channel circuit), and batch (aggregate submissions before ordering;
// group release is detached from the filling caller's cancellation, since
// buffered members were already acknowledged), plus the four privacy
// stages below.
//
// # Privacy stages
//
// Four stages lift the paper's advanced-privacy workloads out of
// hand-wired example code and into the declarative pipeline; each consumes
// a client-attached wire blob from Request.Meta (never covered by the
// request digest, carried by both codecs, size-capped before decode) and
// replaces it with a compact audit note on success:
//
//   - zkproof (mode=range, bits=1..64, optional channel filter) admits a
//     submission only with a valid Pedersen range proof binding the
//     hidden value to the request's principal and channel. Clients attach
//     one with AttachRangeProof or AttachSufficientFundsProof; failures
//     are ErrProofRequired / ErrProofInvalid.
//   - anoncred (mode=present, attrs=k=v+..., scope=...) authenticates a
//     one-show anonymous-credential presentation in place of certificate
//     authn: the gateway learns "a credentialed member" plus a
//     scope-exclusive pseudonym (stable inside the scope, unlinkable
//     across scopes) and sets it as the principal. It counts as
//     authentication for every downstream rule; clients attach with
//     AttachPresentation. Needs Env.AnonCredKey.
//   - attest (mode=tee, bind=input|output|off) admits only submissions
//     carrying a TEE attestation chained to the manufacturer key and
//     enclave measurement pinned in Env.Attestation, with the payload
//     hash-bound to the attested input or output under bind. Clients
//     attach with AttachAttestation.
//   - aggregate (mode=paillier, size=N) is a terminal collector:
//     per-channel groups of N Paillier aggregands (EncodeAggregand) are
//     acknowledged, held, and homomorphically summed; only the combined
//     ciphertext is ordered, under the "aggregated" principal with
//     contributor annotations scrubbed. Needs Env.Aggregator; the
//     collector decrypts with DecryptAggregate.
//
// # Extending the pipeline
//
// The stage set is a registry, not a closed enum. A stage registers once
// (an init function in its own file) with a declarative definition:
//
//	func init() {
//		mustRegisterStage(stageDef{
//			name:   "mystage",
//			desc:   "one-line summary for StageUsage",
//			params: []paramSpec{{"size", "group size (default 8)"}},
//			after:  []orderRule{{other: StageAuthn, why: "needs a verified principal"}},
//			build: func(p *params, sc StageConfig, env Env) (Stage, error) {
//				size := p.intVal("size", 8)
//				...
//			},
//		})
//	}
//
// The definition carries everything Config.validate and buildStage need,
// so neither has stage-specific code: declared params (unknown keys fail
// fast, listing the known ones), ordering constraints (follows — at least
// one of a set must run earlier; after/before — pairwise precedence;
// conflicts — mutual exclusion; terminal — nothing may follow), a
// countsAs alias so a stage can satisfy another's follows-requirement
// (anoncred counts as authn), and the constructor. Every constraint has a
// why string that becomes the error message, which is how the pre-registry
// error texts survived the refactor verbatim. registerStage rejects
// duplicate names, reserved characters, duplicate params, and any rule set
// that would close an ordering cycle with the stages already registered —
// a failed registration leaves no trace. The params helper wraps all
// value parsing so every bad knob reports uniformly under ErrBadConfig.
//
// Registered stages are first-class everywhere: RegisteredStages and
// StageUsage enumerate them, ParseStages compiles the compact text form
// ("session(reqauth=mac)|authn|encrypt|audit", with name=mode sugar) used
// by cmd/gateway's -stages flag, instrument wraps them into the same
// StageStats and confmw_stage_latency_seconds series as the built-ins,
// and the config test matrix exercises their declared rules.
//
// # Session lifecycle
//
// A client opens a session with a signed SessionHello: the SessionManager
// performs the full authn verification — identity matches, certificate
// chains to the pinned CA key, handshake signature verifies — exactly once,
// and returns an unguessable token plus expiry. The hello signature covers
// a nonce and issue time; stale hellos are rejected (ErrStaleHello) and
// nonces are remembered across the freshness window (ErrReplayedHello), so
// a recorded handshake cannot be replayed to mint tokens. The stale,
// identity and replay checks run before any ECDSA verify. The CA check
// goes through a pki.CertVerifier that Config.Build creates once per chain
// and shares between the session manager and the authn stage: it
// remembers the certificates it verified (keyed by a digest of the exact
// signed bytes, capped), so only the first open under a certificate pays
// the CA signature verify and later opens pay just the hello verify.
// Revocation and the validity window are still checked on every open.
// Subsequent submissions
// carry the token and a per-request signature over the request digest; the
// session stage binds them to the cached verified principal without
// touching the certificate again. Requests without a token pass through to
// the authn stage untouched, so one chain serves both traffic kinds.
//
// Sessions end three ways, each observable distinctly: an explicit Close
// (token becomes unknown, ErrNoSession — indistinguishable from a forged
// token by design), the hard TTL, or the idle window (both
// ErrSessionExpired, with the session evicted on detection). The manager
// additionally sweeps expired sessions from the Open path — throttled to
// an interval, so an abandoned client population cannot grow the table
// without bound while a 100k-session open flood never pays a full table
// walk per handshake. A compromised token alone cannot forge traffic:
// every submission still needs a signature under the principal's private
// key — or, under reqauth=mac (below), a MAC under the per-session key
// from the grant.
//
// # Network edge and session binding
//
// Sessions opened over the real TCP edge (internal/netedge) are bound to
// their transport connection: OpenBound stamps the session with the
// connection's identity string, and every subsequent resolve must present
// the same identity or fail with ErrSessionBound. A token captured in
// flight — or exfiltrated from a compromised client — is therefore
// useless from any other connection: the thief would need to hijack the
// original TCP stream itself, which TCP sequence randomization and the
// MAC on every request already guard. Sessions opened through Open (the
// in-process transport path) stay unbound and resolve from anywhere,
// preserving every pre-edge caller.
//
// session.close is bound the same way: a token bound to another
// connection is refused with ErrSessionBound (CloseBound) and the session
// stays live for its own connection.
//
// Binding also gives connection teardown exact semantics: the manager
// indexes bound tokens per transport (byTransport), so EvictTransport —
// wired to the edge's connection-close hook — reaps precisely the dead
// connection's sessions without scanning the table. The eviction shows up
// in SessionStats.Evicted and confmw_sessions_evicted_total; clients that
// reconnect simply open fresh sessions. The binding check rides the
// resolve fast path as one string compare under the stripe read lock —
// no extra lock, no allocation — so the edge pays nothing for it at
// steady state.
//
// # Performance
//
// The session path exists to push steady-state per-request cost toward
// the symmetric-crypto floor; three knobs finish the job:
//
//   - reqauth (session stage parameter, "sig" default | "mac"). Under
//     "mac", Open derives a per-session HMAC-SHA256 key via HKDF — salted
//     with the handshake transcript digest, so the key is rooted in the
//     very PKI handshake it amortizes — and returns it in the
//     SessionGrant. Steady-state submissions then carry MACRequest output
//     instead of an ECDSA signature: a ~0.5µs pooled, allocation-free
//     verify in place of a ~80µs public-key operation. The trust argument:
//     the key is minted only after full certificate verification, is bound
//     to one session, travels the same channel the bearer token already
//     does, and dies with the session — expiry, close, or revocation (a
//     revoked certificate evicts the session and with it the server's
//     copy of the key, so the fast path cannot outlive trust; see
//     BenchmarkGatewaySessionMAC and the revocation suite). Requests
//     without a MAC fall back to the signature path, so first-contact and
//     mixed populations keep working; sessionless traffic still flows
//     through the authn stage unchanged.
//   - Config.Codec ("json" default | "binary"). The binary v2 framing is
//     a length-prefixed encoding for submissions and envelopes: no field
//     names, no base64, no reflection; decodes alias the inbound buffer
//     and encodes are a single exactly-sized allocation. Clients ask for
//     it per session (SessionHello.Codec) and the grant reports what the
//     gateway offers; JSON submissions are always accepted (the framings
//     are sniffed apart by first byte), so enabling binary never strands
//     a client. ParseEnvelope likewise reads both framings.
//   - Striped, read-mostly caches. The session token table is sharded
//     across independent RWMutex stripes keyed by token hash, so resolve —
//     the per-request path — takes one read lock on one stripe, with idle
//     clocks and counters atomic; opens, sweeps, the per-principal cap,
//     and revocation deltas serialize on a separate control mutex. The
//     encrypt stage precomputes the per-channel associated data and the
//     sealing AEAD once per epoch, and over a GenerationalDirectory
//     (SyncDirectory is the stock implementation) caches the member-set
//     fingerprint per (channel, directory generation, exclusion
//     generation), so steady-state membership checks cost two integer
//     compares instead of a sort-and-hash. Digest and MAC computations
//     run on pooled hash states.
//
// BenchmarkGatewaySessionMAC and BenchmarkGatewayParallel hold the
// resulting claim in CI — reqauth=mac is at least 2x lower ns/op and at
// least 50% fewer allocs/op than the signature/JSON session baseline
// (measured ~11x and ~2.6x with the binary codec) — via cmd/benchgate
// speedup rules, and the benchmark gate tracks ns/op, B/op, and allocs/op
// against bench_baseline.json.
//
// # Channel key rotation
//
// With a key cache (encrypt parameter "keyttl" > 0), the encrypt stage
// wraps a channel data key to every member once per (channel, epoch) and
// reuses it: each submission pays one AES-GCM seal instead of one hybrid
// encryption per member. The key rotates onto a fresh epoch — new data
// key, new wraps — when the epoch TTL elapses, when the channel's member
// set changes in the Directory (detected by fingerprint, so a joiner never
// opens pre-join traffic and a leaver's key is dropped from new wraps), or
// on an explicit Encrypt.Rotate / Gateway.RotateChannelKey call (e.g.
// after a revocation). Envelopes record their epoch.
//
// # Revocation
//
// Amortizing authentication into sessions and key wraps into epochs opens
// a window: by default, trust decisions outlive the certificates they were
// rooted in. The revocation plane closes it. Env.Revoker connects the
// pipeline to a revocation authority (pki.CA implements it: a monotonic
// revocation epoch, a RevokedSince delta read, an IsRevoked point query,
// and — as a RevocationSource — an OnRevoke push hook the gateway
// subscribes to at construction and releases on Gateway.Close, so a
// gateway shorter-lived than its CA does not leak the subscription).
//
// The session stage declares its checking strategy with the "revokecheck"
// parameter, validated at Build like every other knob:
//
//   - "off" (default): sessions are never checked; a revoked certificate's
//     session lives until TTL/idle expiry.
//   - "resolve": every token resolution probes the revoker's version (one
//     lock-free load while nothing changes) and applies the delta when it
//     moved — revocation is enforced on the very next request, at a
//     measured ~1-5% of the session hot path (BenchmarkGatewayRevokeCheck,
//     held by the CI bench gate).
//   - "sweep": resolutions stay revoker-free; the delta is applied every
//     "revokesweep" (default 30s) and on push/admin notification — a
//     bounded staleness window instead of a per-request probe.
//
// Guarantees, in any checking mode but "off": opening a session with a
// revoked certificate fails with ErrSessionRevoked; a session whose
// certificate is revoked is evicted at the next delta application
// (instantly under a push-capable revoker), and its token answers
// ErrSessionRevoked — distinct from ErrNoSession and ErrSessionExpired, so
// clients can tell trust withdrawal from ordinary eviction — until the
// session's original expiry, after which the tombstone decays. Eviction is
// serial-exact: revoking a superseded certificate does not kill sessions
// rooted in its replacement. An explicit session.close always degrades the
// token to unknown, tombstone included, and closing an already-evicted
// token is an idempotent no-op with no counter skew.
//
// Envelope encryption follows the same plane independently of the session
// mode: when the gateway learns of an identity-certificate revocation (push
// from a RevocationSource, the revocation.notify admin topic, or a direct
// SyncRevocations call), the revoked identity is excluded from every
// member set before sealing and every cached channel key wrapped to it is
// invalidated, so the channel's next submission installs a fresh epoch the
// revoked member cannot unwrap. The revocation.notify topic carries no
// authority — it only triggers a pull from the configured Revoker — so it
// needs no authentication; its reply reports the epoch reached and the
// sessions evicted. Each revocation lands in the audit log as a
// ClassIdentity observation by the gateway operator
// ("revoked:<identity>#<serial>@<epoch>"), and GatewayStats exposes
// SessionsRevoked, KeyEpochsRevokedRotations, and RevocationSweeps.
//
// Routine key rotation is not a withdrawal: when the revoked serial was
// already superseded by a re-enrollment (pki.Revocation.Superseded), the
// identity keeps its envelope membership — only sessions rooted in the old
// certificate die. An identity revoked outright and later re-enrolled is
// restored with Gateway.ReadmitMember, which lifts the envelope exclusion
// and lets its channels re-key to include it on their next submission.
//
// # Sharded ordering topologies
//
// A single ordering node bounds aggregate throughput: every channel's
// block cutting funnels through one sequencer. The gateway therefore
// accepts an ordering.ShardedBackend transparently — it implements
// ordering.Backend — and Config declares the topology so misconfiguration
// fails at construction like every other knob:
//
//   - Config.Shards names the expected shard count. Zero accepts any
//     backend; a positive count requires the gateway's backend to be a
//     ShardedBackend with exactly that many shards.
//   - Config.ShardPins maps channels to explicit shard indices, overriding
//     consistent hashing for hot channels. Every index must lie inside
//     [0, Shards); the pins are installed on the backend before any
//     traffic, and a pin that would move a channel with live subscribers
//     is rejected (its block chain would fork across shards).
//
// Routing is consistent hashing over the channel name (deterministic
// across processes), so each channel is owned by exactly one shard and the
// per-channel delivery serialization the ordering layer guarantees is
// preserved unchanged; sharding divides only the cross-channel contention
// on each node's sequencer. GatewayStats.Shards exposes per-shard routed
// transactions, delivered blocks, and pinned-channel counts, alongside
// GatewayStats.Sessions (sessions opened, expired at TTL/idle, evicted by
// the per-principal cap) and GatewayStats.KeyEpochsRotated (encrypt
// data-key epoch installs) — the counters session hardening and key
// rotation are monitored by. BenchmarkGatewaySharded holds the scaling
// claim: near-linear aggregate throughput at 1/2/4 shards under
// multi-channel concurrent load, enforced by the CI benchmark gate.
//
// # Observability
//
// Every stage is wrapped by an instrument layer feeding two timing views.
// StageStats.Nanos is inclusive wall time — the stage plus everything
// downstream of it, because Handle(ctx, req, next) brackets the rest of
// the chain — which is the right number for "where does a request spend
// its life" but double-counts when summed across stages.
// StageStats.ExclusiveNanos subtracts the inclusive time of the direct
// downstream calls, so the per-stage histograms
// (confmw_stage_latency_seconds{stage=...}, exported by
// Chain.RegisterMetrics / Gateway.RegisterMetrics into an
// internal/telemetry Registry) measure only the stage's own work and sum
// to the pipeline total. The subtraction is exact, not sampled, and
// handles re-entrant stages: a retry stage that calls next three times
// accumulates all three attempts as downstream (its exclusive time is the
// backoff bookkeeping), and a batch stage that absorbs a request without
// calling next at all is charged its full inclusive time, which is
// correct because batch is always the terminal stage.
//
// Metric names follow confmw_<subsystem>_<name>{labels}: stage latency
// histograms and call/error counters, gateway submitted/ordered/rejected
// totals, session lifecycle counters and the live-session gauge, per-shard
// routing counters, revocation sweep and epoch series, and key-epoch
// rotation counters — one registry, one scrape. cmd/gateway serves the
// registry at /metrics (Prometheus text format 0.0.4) on the -telemetry
// listen address, next to /statusz (the GatewayStats snapshot as JSON),
// /tracez, and /debug/pprof.
//
// Sampled request tracing rides the same instrument layer at zero cost to
// unsampled requests. Config.Trace ("off" default, or a positive N)
// samples one submission in N: the gateway assigns a trace ID, each
// instrumented stage appends a span (inclusive + exclusive duration,
// error), and the finished trace lands in a bounded in-memory ring
// dumpable via /tracez. A request that arrives with a wire-carried
// TraceID — the binary v2 frame carries it as one uvarint, JSON as an
// omitempty field, and SessionHello annotates session.open the same way —
// bypasses the sampler entirely, so a caller tracing a specific request
// always gets its trace. The TraceID is observability annotation, not
// authority: it is excluded from request digests, signatures, and MACs.
//
// The Gateway fronts the platform backends: it runs every submission
// through the chain, submits the resulting transaction to an
// internal/ordering backend, and relays cut blocks to registered platform
// adapters (Fabric, Corda, Quorum); re-binding an already-bound adapter is
// a no-op. It registers as an internal/transport endpoint serving
// gateway.submit, session.open, and session.close, running requests under
// the caller-supplied context so server-side deadlines reach the chain,
// is safe for concurrent use, and exposes per-stage Stats counters.
package middleware
