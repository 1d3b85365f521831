package middleware

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
	"dltprivacy/internal/transport"
)

// Errors returned by the pipeline.
var (
	// ErrNotAuthenticated is returned when a stage that requires a
	// verified submitter runs on a request the authn stage has not passed.
	ErrNotAuthenticated = errors.New("middleware: request not authenticated")
	// ErrBadSignature is returned when the submitter signature does not
	// verify against the certified key.
	ErrBadSignature = errors.New("middleware: submitter signature invalid")
	// ErrBadMAC is returned when a session request's MAC does not verify
	// against the per-session key (reqauth=mac), or when a MAC arrives at
	// a signature-only session stage.
	ErrBadMAC = errors.New("middleware: request mac invalid")
	// ErrIdentityMismatch is returned when the certificate identity does
	// not match the request principal.
	ErrIdentityMismatch = errors.New("middleware: certificate identity does not match principal")
	// ErrRateLimited is returned when a principal exhausts its token
	// bucket.
	ErrRateLimited = errors.New("middleware: rate limit exceeded")
	// ErrCircuitOpen is returned while a backend's circuit breaker is
	// tripped.
	ErrCircuitOpen = errors.New("middleware: circuit open for backend")
	// ErrTransient marks an error as retryable; wrap with
	// fmt.Errorf("...: %w", ErrTransient) or test with IsTransient.
	ErrTransient = errors.New("middleware: transient failure")
)

// Request is one client submission travelling through the chain. Stages
// annotate it in place: authn flips authenticated, encrypt replaces Payload
// with a sealed envelope, the terminal handler records the built
// transaction in Tx.
type Request struct {
	// Channel is the confidentiality domain the submission targets.
	Channel string
	// Principal is the submitting identity (must match Cert.Identity).
	Principal string
	// Backend names the platform backend the submission is destined for;
	// the circuit breaker keys its state by it.
	Backend string
	// Payload is the application content; plaintext at submission,
	// replaced by a marshalled Envelope once the encrypt stage runs.
	Payload []byte
	// Cert is the submitter's identity certificate issued by the
	// consortium CA.
	Cert pki.Certificate
	// Sig is the submitter's signature over Digest().
	Sig dcrypto.Signature
	// SessionToken binds the request to an established gateway session so
	// the session stage authenticates it against the cached verified
	// principal instead of re-verifying the certificate. The token is not
	// part of Digest(): the signature binds content to principal, the token
	// binds the request to the amortized authn.
	SessionToken string
	// MAC authenticates a session request under the per-session HMAC key
	// from the SessionGrant (reqauth=mac): the symmetric fast path that
	// replaces the per-request ECDSA verify. Empty for signature-path
	// traffic. Set it with MACRequest after the payload is final.
	MAC []byte
	// Meta carries free-form annotations copied onto the transaction.
	Meta map[string]string

	// TraceID carries a sampled request's trace identifier across process
	// boundaries: a client that received a traced response (or wants to
	// force tracing) sets it, codec v2 and the JSON wire format propagate
	// it, and the gateway always records requests arriving with one. Zero
	// means "not traced" and lets the gateway's own sampler decide. Like
	// SessionToken it is not part of Digest(): it annotates delivery, not
	// content.
	TraceID uint64

	// TransportID names the transport connection the request arrived on.
	// It is set by the server-side transport layer (the TCP edge stamps
	// each connection's identity here before Submit), never by clients,
	// and never crosses the wire. Sessions opened over an identified
	// connection are bound to it: the session stage rejects a token
	// presented from any other TransportID with ErrSessionBound, closing
	// the token-replay surface. Empty for transports without per-connection
	// identity (the in-process substrate), where sessions stay unbound.
	TransportID string

	// Tx is the ledger transaction built by the terminal handler.
	Tx ledger.Transaction

	authenticated bool
	encrypted     bool

	// trace is the in-flight sampled trace, set by the gateway when the
	// request is sampled; stages record spans into it. Nil (the common
	// case) costs each stage one pointer check.
	trace *telemetry.Trace
	// downstreamNanos is instrument()'s scratch register for exclusive
	// timing: each instrumented frame zeroes it before invoking the stage
	// and adds its own inclusive time back for its parent, so a stage's
	// exclusive time is its inclusive time minus what its direct
	// downstream reported. Keeping it on the request avoids any per-call
	// allocation.
	downstreamNanos int64
	// untimed marks a request the chain's timing sampler skipped: every
	// instrumented frame still counts calls and errors exactly but reads
	// no clocks and observes no latency. Decided once per request at
	// Execute — mixing timed and untimed frames inside one request would
	// corrupt the exclusive-time nesting protocol — and never set while
	// the request carries a trace.
	untimed bool

	// nowStamp is the session stage's clock reading, left on the request
	// so downstream stages on the same default clock (encrypt's epoch
	// expiry check) reuse it instead of reading the clock again. Only a
	// stage running the default coarseNow clock writes or trusts it — a
	// test-injected clock never mixes with the stamp in either direction.
	nowStamp time.Time

	// groupKey is the cached (channel, epoch) key the encrypt stage
	// resolved in deferred group-seal mode: the payload stays plaintext
	// until the batch stage seals the whole group under it with one AEAD
	// invocation. Nil outside deferred mode.
	groupKey *channelKey
	// buffered marks a request the batch stage acknowledged with delivery
	// still pending; SubmitAsync futures of buffered requests resolve at
	// group release, not at Submit return.
	buffered bool
	// metaOwned marks a Meta map owned by the pipeline itself (a synthetic
	// release vehicle built by the batch stage): the terminal handler may
	// annotate and hand it to the ledger transaction directly instead of
	// defensively copying a caller-owned map.
	metaOwned bool
	// borrowed marks a payload that aliases memory its caller reuses once
	// Submit returns (ServeWire's binary decode views the edge's read
	// buffer). The terminal handler copies a borrowed payload that is still
	// plaintext; the batch stage copies every plaintext it buffers.
	borrowed bool
	// done resolves the request's completion future (SubmitAsync): whoever
	// delivers the request — the batch stage at release, or SubmitAsync
	// itself when no stage buffers it — sends the delivery error (nil on
	// success) exactly once. Nil for plain Submit callers.
	done chan error
}

// complete resolves the request's completion future, if any. The buffered
// send plus default keeps a double resolution (a logic bug, not an expected
// path) from blocking the release loop.
func (r *Request) complete(err error) {
	if r.done == nil {
		return
	}
	select {
	case r.done <- err:
	default:
	}
}

// Trace returns the in-flight sampled trace, or nil when the request is
// not being traced. Stages with interesting internal phases may record
// extra spans on it.
func (r *Request) Trace() *telemetry.Trace { return r.trace }

// requestDigestDomain separates request digests from every other hash in
// the library.
const requestDigestDomain = "middleware/request/v1"

// reqDigestBufSize covers the canonical form of a typical request (five
// 8-byte length prefixes, the domain, short channel/principal/backend
// names, and a payload up to ~400 bytes) so the digest is one staging copy
// plus one direct SHA-256 call — no hash-interface round trips. Larger
// requests stream through the pooled incremental hasher instead.
const reqDigestBufSize = 512

var reqDigestBufPool = sync.Pool{New: func() any { return new([reqDigestBufSize]byte) }}

// appendDigestPart appends HashConcat's part encoding: an 8-byte big-endian
// length, then the bytes. (appendLenPrefixed in codec.go is the uvarint wire
// form; the digest form must stay byte-identical to dcrypto.HashConcat.)
func appendDigestPart(b []byte, s string) []byte {
	n := uint64(len(s))
	b = append(b, byte(n>>56), byte(n>>48), byte(n>>40), byte(n>>32),
		byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(b, s...)
}

// Digest returns the canonical signed content of the request: channel,
// principal, backend, and payload, length-prefixed. This runs once per
// request on the session verify path, so it is built to allocate nothing:
// the variadic HashConcat form it replaces was the single largest
// allocation source in the gateway profile (one []byte conversion per
// string field plus the parts slice).
func (r *Request) Digest() [32]byte {
	total := 5*8 + len(requestDigestDomain) +
		len(r.Channel) + len(r.Principal) + len(r.Backend) + len(r.Payload)
	if total <= reqDigestBufSize {
		bp := reqDigestBufPool.Get().(*[reqDigestBufSize]byte)
		b := appendDigestPart(bp[:0], requestDigestDomain)
		b = appendDigestPart(b, r.Channel)
		b = appendDigestPart(b, r.Principal)
		b = appendDigestPart(b, r.Backend)
		b = appendDigestPartBytes(b, r.Payload)
		d := dcrypto.Hash(b)
		reqDigestBufPool.Put(bp)
		return d
	}
	h := dcrypto.NewConcatHasher()
	h.PartString(requestDigestDomain)
	h.PartString(r.Channel)
	h.PartString(r.Principal)
	h.PartString(r.Backend)
	h.Part(r.Payload)
	return h.Sum()
}

// appendDigestPartBytes is appendDigestPart for a byte-slice part.
func appendDigestPartBytes(b, p []byte) []byte {
	n := uint64(len(p))
	b = append(b, byte(n>>56), byte(n>>48), byte(n>>40), byte(n>>32),
		byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(b, p...)
}

// ID returns the hex form of the request digest, the submission identifier
// echoed to transport clients (batched submissions are acknowledged before
// a transaction ID exists).
func (r *Request) ID() string {
	d := r.Digest()
	return hex.EncodeToString(d[:16])
}

// Authenticated reports whether the authn stage verified the request.
func (r *Request) Authenticated() bool { return r.authenticated }

// Encrypted reports whether the encrypt stage sealed the payload.
func (r *Request) Encrypted() bool { return r.encrypted }

// SignRequest signs the request digest with the submitter's key, filling
// Sig. It must be called after the payload is final and before submission.
func SignRequest(r *Request, key *dcrypto.PrivateKey) error {
	d := r.Digest()
	sig, err := key.Sign(d[:])
	if err != nil {
		return fmt.Errorf("middleware: sign request: %w", err)
	}
	r.Sig = sig
	return nil
}

// MACRequest authenticates the request under a session MAC key from a
// SessionGrant, filling MAC. Like SignRequest it must be called after the
// payload is final and before submission; unlike SignRequest it is a pure
// symmetric operation, ~100x cheaper than an ECDSA signature.
func MACRequest(r *Request, macKey []byte) {
	d := r.Digest()
	tag := dcrypto.MAC(macKey, d[:])
	r.MAC = tag[:]
}

// Handler is the continuation a stage invokes to pass the request
// downstream.
type Handler func(ctx context.Context, req *Request) error

// Stage is one interceptor in the pipeline. Handle may inspect or mutate
// the request, short-circuit by returning without calling next, or invoke
// next one or more times (retry) or zero-or-later (batch).
type Stage interface {
	Name() string
	Handle(ctx context.Context, req *Request, next Handler) error
}

// StageStats is a snapshot of one stage's counters.
//
// Nanos is inclusive of downstream stages (the chain is measured from each
// stage's entry), which is what the incremental benchmarks difference to
// get per-stage overhead. Inclusive sums are misleading for re-entrant
// stages: retry invokes its downstream several times (each attempt's time
// lands in retry's Nanos and again in each downstream stage's), and batch
// invokes it zero times at submission (the release happens later, under
// the releasing call). ExclusiveNanos is the complementary measure — time
// spent in the stage itself, minus everything its direct downstream
// reported — and is what the per-stage latency histograms observe, so
// Σ ExclusiveNanos over stages ≈ wall time even around retry loops.
//
// Under sampled timing (Config.TimingSample) Calls and Errors stay exact
// while Nanos, ExclusiveNanos, and the latency histograms cover only the
// timed 1-in-N subset — multiply by the sample divisor to estimate
// totals, or read the histogram quantiles directly (sampling preserves
// the latency distribution, not the sums).
type StageStats struct {
	Name           string
	Calls          uint64
	Errors         uint64
	Nanos          uint64
	ExclusiveNanos uint64
}

// stageMetrics instruments one stage position in the chain.
type stageMetrics struct {
	name   string
	calls  atomic.Uint64
	errors atomic.Uint64
	nanos  atomic.Uint64
	excl   atomic.Uint64
	// lat observes per-call exclusive latency (nanoseconds) into fixed
	// atomic buckets; registered as confmw_stage_latency_seconds.
	lat *telemetry.Histogram
}

// Chain is an immutable composition of stages ending in a terminal handler.
// It is safe for concurrent use when its stages are.
type Chain struct {
	stages  []Stage
	metrics []*stageMetrics
	head    Handler

	// timingEvery > 1 enables sampled stage timing: one in every
	// timingEvery requests runs fully instrumented, the rest skip the
	// clock reads and latency observations (calls and errors stay exact).
	// 0 or 1 — the default for every directly-constructed chain — times
	// every request. Set once via setTimingSample before traffic.
	timingEvery uint64
	timingCtr   atomic.Uint64
}

// NewChain composes stages (outermost first) around the terminal handler.
// Ordering is the caller's responsibility; Config.Build is the validated
// front door.
func NewChain(terminal Handler, stages ...Stage) *Chain {
	if terminal == nil {
		terminal = func(context.Context, *Request) error { return nil }
	}
	c := &Chain{stages: stages}
	h := terminal
	c.metrics = make([]*stageMetrics, len(stages))
	for i := len(stages) - 1; i >= 0; i-- {
		m := &stageMetrics{name: stages[i].Name()}
		m.lat = telemetry.NewHistogram(
			"confmw_stage_latency_seconds",
			"Per-call exclusive stage latency (time in the stage itself, downstream subtracted).",
			telemetry.LatencyBounds, telemetry.NanosPerSecond,
			telemetry.L("stage", m.name),
		)
		c.metrics[i] = m
		h = instrument(stages[i], m, h)
	}
	c.head = h
	return c
}

// instrument wraps one stage with its counters, exclusive-latency
// histogram, and span recording. The exclusive-time protocol uses
// req.downstreamNanos as a scratch register instead of wrapping next in a
// fresh closure, keeping the instrumented path allocation-free: each frame
// saves its parent's accumulator, zeroes it, runs the stage (downstream
// frames add their inclusive time into it — retry's several attempts
// accumulate, batch's zero invocations leave it zero), and restores
// parent + own inclusive time on the way out.
// chainEpoch anchors instrument()'s timestamps: both edges of a frame are
// read as time.Since(chainEpoch), which is a bare monotonic-clock read —
// about half the cost of time.Now, which also reads the wall clock — and
// the rare sampled-trace path reconstructs the exact span start as
// chainEpoch.Add(startOff).
var chainEpoch = time.Now()

// coarseNow is the hot paths' default time source: the current time
// rebuilt from one monotonic-clock read against the process epoch, about
// half the cost of time.Now. Its monotonic reading — what expiry, idle,
// and freshness comparisons between two of its values actually use — is
// exact; only the wall reading can drift from the system clock, by
// whatever steps land after process start. The session and cached-encrypt
// stages default to it when no clock is injected.
func coarseNow() time.Time { return chainEpoch.Add(time.Since(chainEpoch)) }

func instrument(s Stage, m *stageMetrics, next Handler) Handler {
	return func(ctx context.Context, req *Request) error {
		m.calls.Add(1)
		if req.untimed {
			// Sampled-out request: exact calls/errors, no clocks, no
			// latency observation, no exclusive-time bookkeeping. The
			// whole request is untimed (decided at Execute), so no timed
			// frame ever reads the downstreamNanos this frame skips.
			err := s.Handle(ctx, req, next)
			if err != nil {
				m.errors.Add(1)
			}
			return err
		}
		parent := req.downstreamNanos
		req.downstreamNanos = 0
		startOff := time.Since(chainEpoch)
		err := s.Handle(ctx, req, next)
		incl := int64(time.Since(chainEpoch) - startOff)
		excl := incl - req.downstreamNanos
		if excl < 0 {
			excl = 0
		}
		req.downstreamNanos = parent + incl
		m.nanos.Add(uint64(incl))
		m.excl.Add(uint64(excl))
		m.lat.Observe(uint64(excl))
		if err != nil {
			m.errors.Add(1)
		}
		if tr := req.trace; tr != nil {
			tr.AddSpan(m.name, chainEpoch.Add(startOff), time.Duration(incl), time.Duration(excl), err)
		}
		return err
	}
}

// Execute runs the request through the chain.
func (c *Chain) Execute(ctx context.Context, req *Request) error {
	if req == nil {
		return errors.New("middleware: nil request")
	}
	if req.Channel == "" || req.Principal == "" {
		return errors.New("middleware: request needs channel and principal")
	}
	// Per-request timing decision: a traced request is always fully
	// timed (its spans need real timestamps); otherwise one in every
	// timingEvery requests is. Reset unconditionally — callers reuse
	// request structs across submissions.
	if c.timingEvery > 1 {
		req.untimed = req.trace == nil && c.timingCtr.Add(1)%c.timingEvery != 0
	} else {
		req.untimed = false
	}
	return c.head(ctx, req)
}

// setTimingSample enables 1-in-every sampled stage timing on the chain.
// It must be called before traffic; Config.Build is the validated front
// door (the TimingSample knob).
func (c *Chain) setTimingSample(every int) {
	if every > 1 {
		c.timingEvery = uint64(every)
	}
}

// Stats snapshots per-stage counters in chain order.
func (c *Chain) Stats() []StageStats {
	out := make([]StageStats, len(c.metrics))
	for i, m := range c.metrics {
		out[i] = StageStats{
			Name:           m.name,
			Calls:          m.calls.Load(),
			Errors:         m.errors.Load(),
			Nanos:          m.nanos.Load(),
			ExclusiveNanos: m.excl.Load(),
		}
	}
	return out
}

// RegisterMetrics registers the chain's per-stage telemetry into reg:
// confmw_stage_calls_total, confmw_stage_errors_total, and the
// confmw_stage_latency_seconds exclusive-latency histograms, all labelled
// by stage name.
func (c *Chain) RegisterMetrics(reg *telemetry.Registry) error {
	for _, m := range c.metrics {
		if err := reg.Register(m.lat); err != nil {
			return err
		}
		if err := reg.CounterFunc("confmw_stage_calls_total",
			"Stage invocations.", m.calls.Load, telemetry.L("stage", m.name)); err != nil {
			return err
		}
		if err := reg.CounterFunc("confmw_stage_errors_total",
			"Stage invocations that returned an error.", m.errors.Load, telemetry.L("stage", m.name)); err != nil {
			return err
		}
	}
	return nil
}

// StageLatency returns the named stage's exclusive-latency histogram, or
// nil if the chain has no such stage. Useful for deriving p50/p99 in
// process (status pages, tests) without a scrape round-trip.
func (c *Chain) StageLatency(name string) *telemetry.Histogram {
	for _, m := range c.metrics {
		if m.name == name {
			return m.lat
		}
	}
	return nil
}

// StageNames returns the configured stage names in order.
func (c *Chain) StageNames() []string {
	out := make([]string, len(c.stages))
	for i, s := range c.stages {
		out[i] = s.Name()
	}
	return out
}

// stage returns the configured stage with the given name, if any.
func (c *Chain) stage(name string) Stage {
	for _, s := range c.stages {
		if s.Name() == name {
			return s
		}
	}
	return nil
}

// IsTransient reports whether an error is worth retrying: transport
// partitions (which heal), a sequencing shard between leaders (an election
// resolves it — usually within one retry backoff), and anything explicitly
// marked with ErrTransient. Permanent protocol errors (authentication,
// validation, open breakers) are not; neither is ordering.ErrNoQuorum — a
// shard that lost its replication quorum needs operator action, not
// retries.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, transport.ErrPartitioned) ||
		errors.Is(err, ordering.ErrNoLeader)
}
