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
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
)

// Session errors. They are distinct so clients can tell a token that never
// existed (or was evicted) from one that aged out, and either from a
// request whose per-request signature failed.
var (
	// ErrNoSession is returned for a token the manager does not hold:
	// forged, never issued, closed, or already evicted.
	ErrNoSession = errors.New("middleware: unknown session token")
	// ErrSessionExpired is returned when a held session has passed its TTL
	// or its idle window; the session is evicted as a side effect.
	ErrSessionExpired = errors.New("middleware: session expired")
	// ErrStaleHello is returned for a handshake issued outside the
	// freshness window, closing the long-horizon replay surface.
	ErrStaleHello = errors.New("middleware: session hello outside freshness window")
	// ErrReplayedHello is returned when a handshake nonce is seen twice
	// within the freshness window: a recorded hello cannot mint a second
	// token.
	ErrReplayedHello = errors.New("middleware: session hello replayed")
	// ErrSessionRevoked is returned when the certificate a session was
	// opened under has been revoked: the session is evicted, and requests
	// carrying its token are rejected with this error (not ErrNoSession)
	// until the token's original expiry, so clients can tell trust
	// withdrawal from ordinary eviction. Opening a session with an
	// already-revoked certificate fails the same way. Eviction also
	// destroys the session's MAC key, so a revoked client's symmetric
	// fast path dies with its session.
	ErrSessionRevoked = errors.New("middleware: session certificate revoked")
	// ErrSessionBound is returned when a token minted on one transport
	// connection is presented over a different one (or over a transport
	// with no connection identity at all). Sessions opened through
	// OpenBound are pinned to the connection that performed the handshake,
	// so a stolen or replayed token is useless anywhere else; the session
	// itself stays live for its rightful connection.
	ErrSessionBound = errors.New("middleware: session token bound to another connection")
)

// RequestAuthMode selects how the session stage authenticates token-bearing
// requests in steady state.
type RequestAuthMode int

const (
	// AuthSig (the default) verifies an ECDSA signature over the request
	// digest against the session's cached certified key on every request.
	AuthSig RequestAuthMode = iota
	// AuthMAC verifies an HMAC over the request digest under the
	// per-session symmetric key handed out in the SessionGrant — roughly
	// two orders of magnitude cheaper than an ECDSA verify. Requests
	// without a MAC still fall back to the signature path, so first-contact
	// and mixed client populations keep working.
	AuthMAC
)

// String implements fmt.Stringer (config error messages).
func (m RequestAuthMode) String() string {
	switch m {
	case AuthSig:
		return "sig"
	case AuthMAC:
		return "mac"
	default:
		return fmt.Sprintf("RequestAuthMode(%d)", int(m))
	}
}

// ParseRequestAuthMode parses the "reqauth" config parameter.
func ParseRequestAuthMode(s string) (RequestAuthMode, error) {
	switch s {
	case "sig":
		return AuthSig, nil
	case "mac":
		return AuthMAC, nil
	default:
		return AuthSig, fmt.Errorf("unknown request auth mode %q (want sig or mac)", s)
	}
}

// SessionHello is the signed handshake a client sends to open a session:
// the full Authn verification (certificate chain + signature) is paid once
// here instead of on every submission. The signature covers the nonce and
// issue time, so a recorded hello cannot be replayed: the manager rejects
// stale issue times outright and remembers nonces within the freshness
// window.
type SessionHello struct {
	Principal string            `json:"principal"`
	Nonce     []byte            `json:"nonce"`
	IssuedAt  time.Time         `json:"issuedAt"`
	Cert      pki.Certificate   `json:"cert"`
	Sig       dcrypto.Signature `json:"sig"`
	// Codec optionally asks the gateway to serve this session with the
	// named wire codec ("binary" or "json"); the grant echoes what the
	// gateway actually offers. The field is not covered by the handshake
	// signature: codec choice carries no confidentiality or integrity
	// authority (every payload remains authenticated end to end in either
	// encoding), so a tampered preference can at worst downgrade framing
	// efficiency.
	Codec string `json:"codec,omitempty"`
	// TraceID optionally carries the client's trace identifier so a traced
	// client flow records its session handshake too. Like Codec it is not
	// covered by the handshake signature: it annotates observability, not
	// authority — tampering can at worst mislabel a trace.
	TraceID uint64 `json:"trace,omitempty"`
}

// SessionGrant is the manager's reply to an accepted handshake.
type SessionGrant struct {
	Token     string    `json:"token"`
	Principal string    `json:"principal"`
	ExpiresAt time.Time `json:"expiresAt"`
	// MacKey is the per-session request-authentication key, present only
	// when the manager runs reqauth=mac. It is derived via HKDF with the
	// handshake transcript digest as salt, so the key is cryptographically
	// bound to the PKI-verified handshake that opened the session. Its
	// secrecy rides the same channel the bearer token already does; the
	// server's copy dies with the session (expiry, close, or revocation).
	MacKey []byte `json:"macKey,omitempty"`
	// Codec is the wire codec the gateway will serve this session with;
	// empty means JSON.
	Codec string `json:"codec,omitempty"`
}

// helloDigest is the canonical signed content of a handshake.
func helloDigest(principal string, nonce []byte, issuedAt time.Time) [32]byte {
	return dcrypto.HashConcat(
		[]byte("middleware/session/hello/v1"),
		[]byte(principal),
		nonce,
		[]byte(issuedAt.UTC().Format(time.RFC3339Nano)),
	)
}

// helloFreshness bounds how old (or future-dated, for clock skew) a
// handshake may be; nonces are remembered for this window, so a recorded
// hello can never mint a second token.
const helloFreshness = 2 * time.Minute

// NewSessionHello builds and signs a handshake for a principal, stamped
// with the wall clock.
func NewSessionHello(principal string, cert pki.Certificate, key *dcrypto.PrivateKey) (SessionHello, error) {
	return NewSessionHelloAt(principal, cert, key, time.Now())
}

// NewSessionHelloAt builds and signs a handshake with an explicit issue
// time, for callers running on an injected clock.
func NewSessionHelloAt(principal string, cert pki.Certificate, key *dcrypto.PrivateKey, at time.Time) (SessionHello, error) {
	nonce, err := dcrypto.RandomBytes(16)
	if err != nil {
		return SessionHello{}, fmt.Errorf("middleware: hello nonce: %w", err)
	}
	d := helloDigest(principal, nonce, at)
	sig, err := key.Sign(d[:])
	if err != nil {
		return SessionHello{}, fmt.Errorf("middleware: sign hello: %w", err)
	}
	return SessionHello{Principal: principal, Nonce: nonce, IssuedAt: at, Cert: cert, Sig: sig}, nil
}

// sessionTokenBytes is the entropy of a session token (hex-encoded on the
// wire), far beyond guessability.
const sessionTokenBytes = 32

// session is one established client session: the verified principal and
// its certified key, cached so subsequent requests skip PKI verification.
// serial is the certificate the trust was rooted in at Open, the handle
// revocation checks match against. mac is the per-session HMAC key when
// the manager runs reqauth=mac. lastUsed is atomic unix-nanos so the
// resolve fast path can touch the idle clock under a read lock.
type session struct {
	principal string
	key       dcrypto.PublicKey
	mac       []byte
	// macKey is the precomputed-pad verifier over mac, derived once at
	// Open so the per-request HMAC check skips the pad derivation. Nil
	// when the manager runs reqauth=sig.
	macKey *dcrypto.MACKey
	serial uint64
	// boundTo pins the session to the transport connection that opened it
	// (OpenBound); empty for unbound sessions. resolve rejects any other
	// connection's TransportID with ErrSessionBound.
	boundTo   string
	openedAt  time.Time
	expiresAt time.Time
	lastUsed  atomic.Int64
}

// sessionStripeCount divides the token table into independently locked
// stripes so concurrent resolves on different tokens never contend on one
// mutex. Power of two, sized past any plausible core count.
const sessionStripeCount = 32

// sessionStripe is one lock stripe of the token table: its own sessions,
// its own revocation tombstones, its own RWMutex. The resolve hot path
// touches exactly one stripe, read-locked.
type sessionStripe struct {
	mu       sync.RWMutex
	sessions map[string]*session
	// revoked are tombstones for sessions evicted by revocation: their
	// tokens answer ErrSessionRevoked (not ErrNoSession) until the
	// session's original expiry, so a revoked client sees why it was cut
	// off. Keyed by token, valued by forget-after time. An explicit Close
	// clears the tombstone.
	revoked map[string]time.Time
}

// stripeFor hashes a token onto its stripe: FNV-1a over the first 16 token
// bytes plus the length. Genuine tokens are uniformly random hex, so an
// 8-byte prefix already carries 32 bits of stripe entropy against 64
// stripes; bounding the scan keeps the per-request hash O(1) in token
// length (tokens are 64 hex chars, and this sits on the resolve hot path).
func (m *SessionManager) stripeFor(token string) *sessionStripe {
	h := uint32(2166136261)
	n := len(token)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		h = (h ^ uint32(token[i])) * 16777619
	}
	h = (h ^ uint32(len(token))) * 16777619
	return &m.stripes[h&(sessionStripeCount-1)]
}

// SessionManager establishes and resolves gateway sessions. Opening a
// session performs the full certificate verification the authn stage would;
// afterwards, requests carrying the session token are bound to the cached
// verified principal by a per-request signature (reqauth=sig) or
// per-session HMAC (reqauth=mac) over the request digest. Sessions die at
// their TTL, or earlier when idle longer than the idle window. Safe for
// concurrent use: the token table is striped across independent RWMutexes,
// so resolve — the per-request hot path — takes one read lock on one
// stripe, while the control plane (open, close, sweeps, revocation deltas,
// the per-principal index) serializes on a separate mutex.
type SessionManager struct {
	// certs verifies hello certificates against the pinned CA key,
	// remembering the ones it already verified.
	certs           *pki.CertVerifier
	ttl             time.Duration
	idle            time.Duration
	maxPerPrincipal int
	reqauth         RequestAuthMode
	now             func() time.Time
	// defaultClock marks now as the package default (coarseNow): only then
	// may the session stage stamp its reading onto requests for downstream
	// stages on the same clock to reuse.
	defaultClock bool

	// Revocation plane, fixed at construction (WithRevocationChecks).
	revoker       Revoker
	revMode       RevokeCheckMode
	revSweepEvery time.Duration

	// sweepEvery throttles the Open-path table sweep: a full sweep walks
	// every stripe, so running one per open makes opens O(live sessions)
	// and a 100k-session edge quadratic. Expiry enforcement does not
	// depend on the sweep — resolve rejects and evicts stale tokens
	// itself — so the sweep is pure table hygiene and an interval bound
	// keeps it amortized O(1) per open. Derived from ttl/idle at
	// construction; lastSweep is guarded by mu.
	sweepEvery time.Duration
	lastSweep  time.Time

	// stripes is the token table. Lock order: mu (when needed) strictly
	// before any stripe lock; never acquire mu while holding a stripe.
	stripes [sessionStripeCount]sessionStripe

	// mu guards the control plane: the per-principal index and the
	// handshake nonce table. The resolve hot path never takes it.
	mu sync.Mutex
	// byPrincipal indexes live session tokens (and their open times, for
	// cap eviction) per principal, so neither the per-principal cap nor a
	// revocation delta ever scans other principals' sessions. Kept in
	// lockstep with the stripes under mu.
	byPrincipal map[string]map[string]time.Time
	// byTransport indexes bound session tokens per transport connection,
	// so EvictTransport (the connection-close path) reaps exactly the dead
	// connection's sessions without scanning the stripes. Kept in lockstep
	// with the stripes under mu; unbound sessions never appear here.
	byTransport map[string]map[string]bool
	// seenNonces remembers handshake nonces until their freshness window
	// closes, so a recorded hello cannot be replayed to mint a second
	// token. Keyed by nonce hex, valued by forget-after time.
	seenNonces map[string]time.Time

	// revEpoch is the last revocation epoch applied; lastRevSweep stamps
	// the last delta application (unix nanos) for the sweep-mode interval
	// check. Both atomic so resolve-mode probes and sweep-mode interval
	// checks stay lock-free while nothing changed.
	revEpoch     atomic.Uint64
	lastRevSweep atomic.Int64

	// Lifecycle counters; atomic so hot-path evictions skip mu.
	opened  atomic.Uint64
	expired atomic.Uint64
	evicted atomic.Uint64
	revoked atomic.Uint64
}

// SessionStats is a snapshot of the manager's lifecycle counters, the
// numbers "session hardening at scale" watches.
type SessionStats struct {
	// Live is the number of held sessions (including any not yet swept).
	Live int
	// Opened counts sessions granted over the manager's lifetime.
	Opened uint64
	// Expired counts sessions evicted at their TTL or idle window.
	Expired uint64
	// Evicted counts sessions displaced by the per-principal cap.
	Evicted uint64
	// Revoked counts sessions evicted because their certificate was
	// revoked (never double-counted with Expired or Evicted).
	Revoked uint64
}

// SessionOption configures a SessionManager beyond the required fields.
type SessionOption func(*SessionManager)

// WithMaxPerPrincipal caps live sessions per principal: opening a session
// beyond the cap evicts the principal's oldest session. n <= 0 means
// unlimited, the default.
func WithMaxPerPrincipal(n int) SessionOption {
	return func(m *SessionManager) {
		if n > 0 {
			m.maxPerPrincipal = n
		}
	}
}

// WithRequestAuth selects how token-bearing requests are authenticated in
// steady state: AuthSig (default) per-request ECDSA, AuthMAC per-session
// HMAC with the key handed out in the grant. The config parameter form is
// "reqauth" on the session stage.
func WithRequestAuth(mode RequestAuthMode) SessionOption {
	return func(m *SessionManager) { m.reqauth = mode }
}

// defaultRevokeSweep is the sweep-mode interval when none is configured.
const defaultRevokeSweep = 30 * time.Second

// WithRevocationChecks wires the manager to a revocation plane. In mode
// RevokeCheckResolve every token resolution probes the revoker's version
// and applies the delta when it moved; in RevokeCheckSweep the delta is
// applied every sweepEvery (<= 0 defaults to 30s) and on SweepRevoked
// calls (the push/admin-notification path). Either way, opening a session
// with a revoked certificate fails, evicted tokens answer
// ErrSessionRevoked until their original expiry, and evictions are counted
// in SessionStats.Revoked. Mode RevokeCheckOff ignores the revoker.
func WithRevocationChecks(r Revoker, mode RevokeCheckMode, sweepEvery time.Duration) SessionOption {
	return func(m *SessionManager) {
		m.revoker = r
		m.revMode = mode
		if sweepEvery <= 0 {
			sweepEvery = defaultRevokeSweep
		}
		m.revSweepEvery = sweepEvery
	}
}

// NewSessionManager creates a manager pinned to the consortium CA key.
// ttl bounds total session lifetime; idle evicts sessions unused that long.
func NewSessionManager(caKey dcrypto.PublicKey, ttl, idle time.Duration, now func() time.Time, opts ...SessionOption) (*SessionManager, error) {
	if caKey.IsZero() {
		return nil, errors.New("middleware: session manager needs the CA key")
	}
	return newSessionManager(pki.NewCertVerifier(caKey), ttl, idle, now, opts...)
}

// newSessionManager is NewSessionManager over a certificate verifier shared
// with the rest of the chain (Config.Build).
func newSessionManager(certs *pki.CertVerifier, ttl, idle time.Duration, now func() time.Time, opts ...SessionOption) (*SessionManager, error) {
	if ttl <= 0 || idle <= 0 {
		return nil, fmt.Errorf("middleware: session ttl and idle must be positive, got ttl=%v idle=%v", ttl, idle)
	}
	defaultClock := now == nil
	if defaultClock {
		// The default clock is the cheap monotonic-anchored one: resolve
		// reads it on every authenticated request.
		now = coarseNow
	}
	m := &SessionManager{
		certs:        certs,
		ttl:          ttl,
		idle:         idle,
		now:          now,
		defaultClock: defaultClock,
		byPrincipal:  make(map[string]map[string]time.Time),
		byTransport:  make(map[string]map[string]bool),
		seenNonces:   make(map[string]time.Time),
	}
	for i := range m.stripes {
		m.stripes[i].sessions = make(map[string]*session)
		m.stripes[i].revoked = make(map[string]time.Time)
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.revMode != RevokeCheckOff && m.revoker == nil {
		return nil, fmt.Errorf("middleware: revocation checks (%v) need a revoker", m.revMode)
	}
	// A quarter of the shortest lifetime keeps test clocks (millisecond
	// ttls) sweeping on practically every open, while production windows
	// (minutes) settle at the one-second cap.
	m.sweepEvery = m.ttl
	if m.idle < m.sweepEvery {
		m.sweepEvery = m.idle
	}
	m.sweepEvery /= 4
	if m.sweepEvery > time.Second {
		m.sweepEvery = time.Second
	}
	m.lastRevSweep.Store(m.now().UnixNano())
	return m, nil
}

// RequestAuth reports the steady-state request authentication mode.
func (m *SessionManager) RequestAuth() RequestAuthMode { return m.reqauth }

// sessionMACInfo labels the HKDF derivation of per-session request keys.
const sessionMACInfo = "middleware/session/mac/v1/"

// Open verifies the handshake as the authn stage verifies a request —
// identity matches, certificate chains to the CA, signature verifies
// against the certified key — and issues an unguessable token. Cheap
// rejections (stale issue time, identity mismatch, an already-consumed
// nonce) run before either ECDSA verify, and the CA check goes through a
// pki.CertVerifier, so only the first open under a certificate pays it.
// Under reqauth=mac the grant additionally carries a per-session HMAC key,
// derived via HKDF salted with the handshake transcript digest so the
// symmetric fast path stays rooted in the PKI handshake it amortizes.
// Sessions opened this way are unbound: the token works from any transport.
func (m *SessionManager) Open(hello SessionHello) (SessionGrant, error) {
	return m.OpenBound(hello, "")
}

// OpenBound is Open with the token pinned to a transport connection
// identity: every subsequent resolve must present the same TransportID or
// fail with ErrSessionBound, so a token captured in flight (or leaked by a
// client) cannot be replayed over a different connection. The TCP edge
// opens every session this way, stamping each connection's identity; an
// empty transportID degrades to an unbound Open. Connection teardown
// should call EvictTransport to reap the bound sessions.
func (m *SessionManager) OpenBound(hello SessionHello, transportID string) (SessionGrant, error) {
	now := m.now()
	if hello.IssuedAt.Before(now.Add(-helloFreshness)) || hello.IssuedAt.After(now.Add(helloFreshness)) {
		return SessionGrant{}, fmt.Errorf("%w: issued %v, now %v", ErrStaleHello, hello.IssuedAt, now)
	}
	// Cheap rejections run before any ECDSA verify, so a mismatched or
	// replayed hello costs no public-key work.
	if hello.Cert.Identity != hello.Principal {
		return SessionGrant{}, fmt.Errorf("%w: cert for %q, hello by %q",
			ErrIdentityMismatch, hello.Cert.Identity, hello.Principal)
	}
	// This nonce lookup is read-only: an unverified hello must not consume
	// a nonce (or it could burn someone else's), so the authoritative
	// check-and-insert runs below, after the signature verifies.
	nonceKey := hex.EncodeToString(hello.Nonce)
	m.mu.Lock()
	_, seen := m.seenNonces[nonceKey]
	m.mu.Unlock()
	if seen {
		return SessionGrant{}, fmt.Errorf("%w: principal %s", ErrReplayedHello, hello.Principal)
	}
	// The first open under a certificate pays the CA signature verify; the
	// verifier remembers it, so later opens under it pay only the hello
	// signature below.
	key, err := m.certs.Verify(hello.Cert, now)
	if err != nil {
		return SessionGrant{}, fmt.Errorf("session open %s: %w", hello.Principal, err)
	}
	// A revoked certificate cannot root a new session, whatever the check
	// mode does to established ones. This unlocked check is the cheap
	// fast-fail; the authoritative re-check runs under the control lock
	// below, so a revocation sweeping between here and the insert cannot
	// slip a revoked serial into the table.
	if m.revMode != RevokeCheckOff && m.revoker.IsRevoked(hello.Cert.Serial) {
		return SessionGrant{}, fmt.Errorf("%w: open by %s (serial %d)",
			ErrSessionRevoked, hello.Principal, hello.Cert.Serial)
	}
	d := helloDigest(hello.Principal, hello.Nonce, hello.IssuedAt)
	if err := key.Verify(d[:], hello.Sig); err != nil {
		return SessionGrant{}, fmt.Errorf("%w: session hello by %s", ErrBadSignature, hello.Principal)
	}
	raw, err := dcrypto.RandomBytes(sessionTokenBytes)
	if err != nil {
		return SessionGrant{}, fmt.Errorf("session token: %w", err)
	}
	token := hex.EncodeToString(raw)
	expires := now.Add(m.ttl)
	var macKey []byte
	if m.reqauth == AuthMAC {
		ikm, err := dcrypto.RandomBytes(dcrypto.MACKeySize)
		if err != nil {
			return SessionGrant{}, fmt.Errorf("session mac key: %w", err)
		}
		macKey, err = dcrypto.HKDF(ikm, d[:], []byte(sessionMACInfo+token), dcrypto.MACKeySize)
		if err != nil {
			return SessionGrant{}, fmt.Errorf("session mac key: %w", err)
		}
	}

	s := &session{
		principal: hello.Principal,
		key:       key,
		mac:       macKey,
		serial:    hello.Cert.Serial,
		boundTo:   transportID,
		openedAt:  now,
		expiresAt: expires,
	}
	if len(macKey) > 0 {
		s.macKey = dcrypto.NewMACKey(macKey)
	}
	s.lastUsed.Store(now.UnixNano())

	// A verified hello is consumed: its nonce is remembered until every
	// copy of it has gone stale, so replaying it cannot mint a token.
	m.mu.Lock()
	if now.Sub(m.lastSweep) >= m.sweepEvery {
		m.sweepLocked(now)
		m.lastSweep = now
	}
	if _, seen := m.seenNonces[nonceKey]; seen {
		m.mu.Unlock()
		return SessionGrant{}, fmt.Errorf("%w: principal %s", ErrReplayedHello, hello.Principal)
	}
	m.seenNonces[nonceKey] = hello.IssuedAt.Add(2 * helloFreshness)
	// Authoritative revocation re-check, under the same lock revocation
	// deltas are applied with: a Revoke that landed after the unlocked
	// check above has either already been applied (we must not insert a
	// session its sweep can no longer see) or will be applied later (and
	// will then evict the insert by serial). Either way no revoked serial
	// survives.
	if m.revMode != RevokeCheckOff && m.revoker.IsRevoked(hello.Cert.Serial) {
		m.mu.Unlock()
		return SessionGrant{}, fmt.Errorf("%w: open by %s (serial %d)",
			ErrSessionRevoked, hello.Principal, hello.Cert.Serial)
	}
	m.capPrincipalLocked(hello.Principal)
	m.opened.Add(1)
	st := m.stripeFor(token)
	st.mu.Lock()
	st.sessions[token] = s
	st.mu.Unlock()
	set := m.byPrincipal[hello.Principal]
	if set == nil {
		set = make(map[string]time.Time)
		m.byPrincipal[hello.Principal] = set
	}
	set[token] = now
	if transportID != "" {
		conns := m.byTransport[transportID]
		if conns == nil {
			conns = make(map[string]bool)
			m.byTransport[transportID] = conns
		}
		conns[token] = true
	}
	m.mu.Unlock()
	return SessionGrant{Token: token, Principal: hello.Principal, ExpiresAt: expires, MacKey: macKey}, nil
}

// Close ends a session. Closing an unknown token is a no-op: the token may
// already have been evicted by expiry, the per-principal cap, or a
// revocation sweep — a client draining its sessions must never see an
// error or skew a lifecycle counter for losing that race. Closing a
// revocation-tombstoned token clears the tombstone, so an explicitly
// closed token degrades to ErrNoSession like any other closed one. Close
// ignores connection binding: it is the embedder's form, and the wire's
// session.close goes through CloseBound.
func (m *SessionManager) Close(token string) {
	_ = m.close(token, "", false)
}

// CloseBound is Close presented over a transport connection: a session
// bound to a different connection (or presented with no connection
// identity) is refused with ErrSessionBound and stays live, exactly as
// resolve refuses it, so a captured token cannot end its owner's session.
func (m *SessionManager) CloseBound(token, transportID string) error {
	return m.close(token, transportID, true)
}

func (m *SessionManager) close(token, transportID string, checkBinding bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stripeFor(token)
	st.mu.Lock()
	defer st.mu.Unlock()
	if s, ok := st.sessions[token]; ok {
		if checkBinding && s.boundTo != "" && s.boundTo != transportID {
			return ErrSessionBound
		}
		m.deleteSessionLocked(st, token, s)
	}
	delete(st.revoked, token)
	return nil
}

// deleteSessionLocked removes a session from its stripe and the
// per-principal index. Called with mu AND the token's stripe lock held.
func (m *SessionManager) deleteSessionLocked(st *sessionStripe, token string, s *session) {
	delete(st.sessions, token)
	if set := m.byPrincipal[s.principal]; set != nil {
		delete(set, token)
		if len(set) == 0 {
			delete(m.byPrincipal, s.principal)
		}
	}
	if s.boundTo != "" {
		if conns := m.byTransport[s.boundTo]; conns != nil {
			delete(conns, token)
			if len(conns) == 0 {
				delete(m.byTransport, s.boundTo)
			}
		}
	}
}

// EvictTransport evicts every session bound to the transport connection —
// the connection-teardown path: a closed TCP connection's sessions can
// never be used again (their tokens answer ErrSessionBound everywhere
// else), so the edge reaps them immediately instead of waiting out the
// idle window. Evictions count in SessionStats.Evicted. Returns how many
// sessions died. Trivial for transports that never bound a session.
func (m *SessionManager) EvictTransport(transportID string) int {
	if transportID == "" {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for token := range m.byTransport[transportID] {
		st := m.stripeFor(token)
		st.mu.Lock()
		if s, ok := st.sessions[token]; ok {
			m.deleteSessionLocked(st, token, s)
			m.evicted.Add(1)
			n++
		}
		st.mu.Unlock()
	}
	delete(m.byTransport, transportID)
	return n
}

// resolve returns the verified principal, certified key, and (under
// reqauth=mac) precomputed session MAC verifier bound to a token, touching
// its idle clock.
// This is the gateway's per-request hot path: one read lock on one stripe,
// no control-plane mutex, no allocation. Expired or idle sessions are
// evicted via a write-locked slow path, and the revocation plane is
// consulted per the configured mode: resolve mode probes the revoker's
// version on every call (one atomic load when nothing changed), sweep mode
// only applies the delta when the sweep interval has elapsed.
// transportID is the connection identity the token arrived over; a
// bound session resolves only for its own connection (ErrSessionBound
// otherwise, without touching the idle clock — a replay must not keep the
// victim's session warm).
func (m *SessionManager) resolve(token, transportID string) (string, dcrypto.PublicKey, *dcrypto.MACKey, error) {
	return m.resolveAt(m.now(), token, transportID)
}

// resolveAt is resolve with the caller's clock reading: the session stage
// reads the clock once per request and shares the value between resolve and
// the stamp it leaves for downstream stages.
func (m *SessionManager) resolveAt(now time.Time, token, transportID string) (string, dcrypto.PublicKey, *dcrypto.MACKey, error) {
	switch m.revMode {
	case RevokeCheckResolve:
		if m.revoker.RevocationVersion() != m.revEpoch.Load() {
			m.applyRevocationDelta(now)
		}
	case RevokeCheckSweep:
		if now.UnixNano()-m.lastRevSweep.Load() >= int64(m.revSweepEvery) {
			m.applyRevocationDelta(now)
		}
	}
	st := m.stripeFor(token)
	st.mu.RLock()
	// The len guard skips hashing the token against an empty tombstone
	// table — the steady state of a deployment with no recent revocations.
	if len(st.revoked) > 0 {
		if forgetAfter, tombstoned := st.revoked[token]; tombstoned {
			st.mu.RUnlock()
			if now.After(forgetAfter) {
				st.mu.Lock()
				if forgetAfter, still := st.revoked[token]; still && now.After(forgetAfter) {
					delete(st.revoked, token)
				}
				st.mu.Unlock()
				return "", dcrypto.PublicKey{}, nil, ErrNoSession
			}
			return "", dcrypto.PublicKey{}, nil, ErrSessionRevoked
		}
	}
	s, ok := st.sessions[token]
	if !ok {
		st.mu.RUnlock()
		return "", dcrypto.PublicKey{}, nil, ErrNoSession
	}
	nowNanos := now.UnixNano()
	if now.After(s.expiresAt) || nowNanos-s.lastUsed.Load() > int64(m.idle) {
		st.mu.RUnlock()
		m.evictExpired(st, token, now)
		return "", dcrypto.PublicKey{}, nil, ErrSessionExpired
	}
	if s.boundTo != "" && s.boundTo != transportID {
		st.mu.RUnlock()
		return "", dcrypto.PublicKey{}, nil, ErrSessionBound
	}
	// Concurrent stores race benignly: every racer writes "about now".
	s.lastUsed.Store(nowNanos)
	principal, key, mac := s.principal, s.key, s.macKey
	st.mu.RUnlock()
	return principal, key, mac, nil
}

// evictExpired upgrades to the write-locked slow path after resolve saw a
// session past its TTL or idle window, rechecking under the locks (a
// concurrent Close or sweep may have beaten us here).
func (m *SessionManager) evictExpired(st *sessionStripe, token string, now time.Time) {
	m.mu.Lock()
	st.mu.Lock()
	if s, ok := st.sessions[token]; ok &&
		(now.After(s.expiresAt) || now.UnixNano()-s.lastUsed.Load() > int64(m.idle)) {
		m.deleteSessionLocked(st, token, s)
		m.expired.Add(1)
	}
	st.mu.Unlock()
	m.mu.Unlock()
}

// applyRevocationDelta serializes delta application on the control mutex;
// racing resolvers apply an empty delta and move on.
func (m *SessionManager) applyRevocationDelta(now time.Time) {
	m.mu.Lock()
	m.applyRevocationDeltaLocked(now)
	m.mu.Unlock()
}

// applyRevocationDeltaLocked pulls the revocations issued since the last
// applied epoch and evicts every session rooted in a revoked certificate,
// leaving a tombstone so the token answers ErrSessionRevoked until its
// original expiry. Only the revoked identity's own sessions are scanned,
// via the byPrincipal index. Called with mu held.
func (m *SessionManager) applyRevocationDeltaLocked(now time.Time) {
	revs, version := m.revoker.RevokedSince(m.revEpoch.Load())
	m.revEpoch.Store(version)
	m.lastRevSweep.Store(now.UnixNano())
	for _, rev := range revs {
		for token := range m.byPrincipal[rev.Identity] {
			st := m.stripeFor(token)
			st.mu.Lock()
			s := st.sessions[token]
			if s == nil || s.serial != rev.Serial {
				st.mu.Unlock()
				continue // a newer cert of the same identity still stands
			}
			m.deleteSessionLocked(st, token, s)
			m.revoked.Add(1)
			st.revoked[token] = s.expiresAt
			st.mu.Unlock()
		}
	}
}

// SweepRevoked applies the pending revocation delta immediately — the
// push path: the gateway calls it when the revocation source notifies or
// an admin hits the revocation.notify topic. It reports how many sessions
// the sweep evicted. A manager without revocation checks sweeps trivially.
func (m *SessionManager) SweepRevoked() int {
	if m.revMode == RevokeCheckOff {
		return 0
	}
	now := m.now()
	m.mu.Lock()
	before := m.revoked.Load()
	m.applyRevocationDeltaLocked(now)
	after := m.revoked.Load()
	m.mu.Unlock()
	return int(after - before)
}

// sweepLocked evicts every session past its TTL or idle window, and every
// remembered nonce and revocation tombstone past its forget-after time.
// Called with mu held, from Open at most once per sweepEvery, so an
// abandoned client population cannot grow any table without bound while a
// 100k-session open flood never pays a full table walk per handshake.
func (m *SessionManager) sweepLocked(now time.Time) {
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.Lock()
		for token, s := range st.sessions {
			if now.After(s.expiresAt) || now.UnixNano()-s.lastUsed.Load() > int64(m.idle) {
				m.deleteSessionLocked(st, token, s)
				m.expired.Add(1)
			}
		}
		for token, forgetAfter := range st.revoked {
			if now.After(forgetAfter) {
				delete(st.revoked, token)
			}
		}
		st.mu.Unlock()
	}
	for nonce, forgetAfter := range m.seenNonces {
		if now.After(forgetAfter) {
			delete(m.seenNonces, nonce)
		}
	}
}

// capPrincipalLocked makes room for one more session of the principal:
// while the principal sits at (or, after a cap change, above) the cap, the
// session opened longest ago is evicted. Called with mu held, after the
// sweep, so sessions expiring anyway do not count against the cap. Only
// the principal's own sessions are consulted, via the byPrincipal index —
// which carries each token's open time precisely so cap eviction never
// has to chase sessions across stripes to find the oldest.
func (m *SessionManager) capPrincipalLocked(principal string) {
	if m.maxPerPrincipal <= 0 {
		return
	}
	set := m.byPrincipal[principal]
	for len(set) >= m.maxPerPrincipal {
		oldestToken := ""
		var oldest time.Time
		for token, openedAt := range set {
			if oldestToken == "" || openedAt.Before(oldest) {
				oldestToken, oldest = token, openedAt
			}
		}
		st := m.stripeFor(oldestToken)
		st.mu.Lock()
		if s, ok := st.sessions[oldestToken]; ok {
			m.deleteSessionLocked(st, oldestToken, s)
		} else {
			delete(set, oldestToken) // index/stripe drift is impossible, but never loop forever
		}
		st.mu.Unlock()
		m.evicted.Add(1)
	}
}

// Len reports the number of live sessions (including any not yet swept).
func (m *SessionManager) Len() int {
	n := 0
	for i := range m.stripes {
		st := &m.stripes[i]
		st.mu.RLock()
		n += len(st.sessions)
		st.mu.RUnlock()
	}
	return n
}

// Stats snapshots the manager's lifecycle counters. The eviction counters
// are read before Opened: an eviction always follows the open it undoes,
// so reading the evictions first (and Opened, which can only have grown,
// last) keeps the snapshot invariant Opened >= Expired+Evicted+Revoked
// even while submitters race the poll. The reverse order could observe an
// open-then-evict pair's eviction without its open.
func (m *SessionManager) Stats() SessionStats {
	expired := m.expired.Load()
	evicted := m.evicted.Load()
	revoked := m.revoked.Load()
	return SessionStats{
		Live:    m.Len(),
		Opened:  m.opened.Load(),
		Expired: expired,
		Evicted: evicted,
		Revoked: revoked,
	}
}

// RegisterMetrics registers the manager's lifecycle counters and live
// gauge into reg under the confmw_sessions_* names.
func (m *SessionManager) RegisterMetrics(reg *telemetry.Registry) error {
	if err := reg.GaugeFunc("confmw_sessions_live",
		"Currently held sessions.", func() float64 { return float64(m.Len()) }); err != nil {
		return err
	}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"confmw_sessions_opened_total", "Sessions granted.", m.opened.Load},
		{"confmw_sessions_expired_total", "Sessions evicted at their TTL or idle window.", m.expired.Load},
		{"confmw_sessions_evicted_total", "Sessions displaced by the per-principal cap.", m.evicted.Load},
		{"confmw_sessions_revoked_total", "Sessions evicted by certificate revocation.", m.revoked.Load},
	} {
		if err := reg.CounterFunc(c.name, c.help, c.fn); err != nil {
			return err
		}
	}
	return nil
}

// Session is the session-aware authn stage. A request carrying a token is
// bound to its session's cached verified principal by a per-request
// signature — or, under reqauth=mac, a per-session HMAC — over the request
// digest: no certificate verification on the hot path, and in MAC mode no
// public-key operation at all. A request without a token passes through
// untouched for the full authn stage downstream, so one chain serves both
// kinds of traffic.
type Session struct {
	mgr *SessionManager
}

// NewSession creates the session stage over an established manager.
func NewSession(mgr *SessionManager) (*Session, error) {
	if mgr == nil {
		return nil, errors.New("middleware: session stage needs a manager")
	}
	return &Session{mgr: mgr}, nil
}

// Name implements Stage.
func (s *Session) Name() string { return StageSession }

// Manager returns the stage's session manager, the handle the gateway
// serves session.open / session.close through.
func (s *Session) Manager() *SessionManager { return s.mgr }

// Handle implements Stage.
func (s *Session) Handle(ctx context.Context, req *Request, next Handler) error {
	if req.SessionToken == "" {
		return next(ctx, req)
	}
	now := s.mgr.now()
	if s.mgr.defaultClock {
		// Leave the reading for downstream stages on the same default
		// clock (encrypt's epoch expiry check): one clock read per request
		// instead of one per stage.
		req.nowStamp = now
	}
	principal, key, mac, err := s.mgr.resolveAt(now, req.SessionToken, req.TransportID)
	if err != nil {
		return fmt.Errorf("session %s: %w", req.Principal, err)
	}
	if principal != req.Principal {
		return fmt.Errorf("%w: session for %q, request by %q",
			ErrIdentityMismatch, principal, req.Principal)
	}
	d := req.Digest()
	if len(req.MAC) > 0 {
		// A MAC is only meaningful under reqauth=mac, where the session
		// holds the key to check it against; in sig mode no key was ever
		// derived, so a MAC-bearing request is a misconfigured client.
		if s.mgr.reqauth != AuthMAC || mac == nil {
			return fmt.Errorf("%w: session principal %s sent a MAC to a signature-only gateway", ErrBadMAC, req.Principal)
		}
		if err := mac.Verify(d[:], req.MAC); err != nil {
			return fmt.Errorf("%w: session principal %s", ErrBadMAC, req.Principal)
		}
	} else {
		// The signature path stays available in every mode: sessionless
		// and first-contact clients (and MAC-mode clients that have not
		// adopted the grant key yet) keep working unchanged.
		if err := key.Verify(d[:], req.Sig); err != nil {
			return fmt.Errorf("%w: session principal %s", ErrBadSignature, req.Principal)
		}
	}
	req.authenticated = true
	return next(ctx, req)
}
