package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"math/big"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// bindingFixture is a manager plus an enrolled principal ready to open
// sessions.
type bindingFixture struct {
	mgr  *SessionManager
	cert pki.Certificate
	key  *dcrypto.PrivateKey
}

func newBindingFixture(t *testing.T) *bindingFixture {
	t.Helper()
	ca, err := pki.NewCA("bind-ca")
	if err != nil {
		t.Fatal(err)
	}
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Enroll("alice", key.Public())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, time.Now)
	if err != nil {
		t.Fatal(err)
	}
	return &bindingFixture{mgr: mgr, cert: cert, key: key}
}

func (f *bindingFixture) open(t *testing.T, transportID string) SessionGrant {
	t.Helper()
	hello, err := NewSessionHello("alice", f.cert, f.key)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := f.mgr.OpenBound(hello, transportID)
	if err != nil {
		t.Fatal(err)
	}
	return grant
}

// TestSessionTransportBinding pins the resolve-side contract: a bound
// token resolves only over its own transport — any other identity,
// including the empty in-process one, gets ErrSessionBound — while
// unbound tokens resolve from anywhere.
func TestSessionTransportBinding(t *testing.T) {
	f := newBindingFixture(t)
	bound := f.open(t, "tcp:1:peer")
	if _, _, _, err := f.mgr.resolve(bound.Token, "tcp:1:peer"); err != nil {
		t.Fatalf("resolve on home transport: %v", err)
	}
	if _, _, _, err := f.mgr.resolve(bound.Token, "tcp:2:other"); !errors.Is(err, ErrSessionBound) {
		t.Fatalf("cross-transport resolve: got %v, want ErrSessionBound", err)
	}
	if _, _, _, err := f.mgr.resolve(bound.Token, ""); !errors.Is(err, ErrSessionBound) {
		t.Fatalf("transport-less resolve of bound token: got %v, want ErrSessionBound", err)
	}
	// A binding rejection is not a kill: the home transport still works.
	if _, _, _, err := f.mgr.resolve(bound.Token, "tcp:1:peer"); err != nil {
		t.Fatalf("home transport after replay attempt: %v", err)
	}

	unbound := f.open(t, "")
	for _, id := range []string{"", "tcp:3:any"} {
		if _, _, _, err := f.mgr.resolve(unbound.Token, id); err != nil {
			t.Fatalf("unbound resolve over %q: %v", id, err)
		}
	}
}

// TestEvictTransport pins the teardown contract: a dead connection's
// sessions all die with it, other transports' sessions survive, and the
// eviction shows in stats.
func TestEvictTransport(t *testing.T) {
	f := newBindingFixture(t)
	a1 := f.open(t, "tcp:1:peer")
	a2 := f.open(t, "tcp:1:peer")
	b := f.open(t, "tcp:2:other")

	if n := f.mgr.EvictTransport("tcp:9:unknown"); n != 0 {
		t.Fatalf("evicting unknown transport reaped %d sessions", n)
	}
	if n := f.mgr.EvictTransport("tcp:1:peer"); n != 2 {
		t.Fatalf("EvictTransport = %d, want 2", n)
	}
	for _, token := range []string{a1.Token, a2.Token} {
		if _, _, _, err := f.mgr.resolve(token, "tcp:1:peer"); err == nil {
			t.Fatal("evicted session still resolves")
		}
	}
	if _, _, _, err := f.mgr.resolve(b.Token, "tcp:2:other"); err != nil {
		t.Fatalf("unrelated transport's session evicted too: %v", err)
	}
	// Idempotent: the transport's index entry is gone.
	if n := f.mgr.EvictTransport("tcp:1:peer"); n != 0 {
		t.Fatalf("second eviction reaped %d sessions", n)
	}
	st := f.mgr.Stats()
	if st.Evicted != 2 || st.Live != 1 {
		t.Fatalf("stats after eviction: %+v", st)
	}
	// Closing the surviving bound session prunes the transport index via
	// the same path; nothing left to evict afterwards.
	f.mgr.Close(b.Token)
	if n := f.mgr.EvictTransport("tcp:2:other"); n != 0 {
		t.Fatalf("closed session still indexed by transport: %d", n)
	}
}

// bindingGateway is a session-fronted gateway with one enrolled principal,
// driven through ServeWire the way the TCP edge drives it.
func bindingGateway(t *testing.T) (*Gateway, *principal) {
	t.Helper()
	ca, ps := enroll(t, "alice")
	cfg := Config{Stages: []StageConfig{
		{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}},
		{Name: StageAuthn},
	}}
	env := Env{CAKey: ca.PublicKey(), Log: audit.NewLog()}
	gw, err := NewGateway("bind-gw", cfg, env, ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	gw.Bind("deals", backendFunc{name: "sink", commit: func(ledger.Block) error { return nil }})
	return gw, ps["alice"]
}

func serveOpen(t *testing.T, gw *Gateway, p *principal, transportID string) SessionGrant {
	t.Helper()
	hello, err := NewSessionHello(p.name, p.cert, p.key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(hello)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := gw.ServeWire(context.Background(), TopicSessionOpen, b, transportID)
	if err != nil {
		t.Fatalf("session.open over %q: %v", transportID, err)
	}
	var grant SessionGrant
	if err := json.Unmarshal(reply, &grant); err != nil {
		t.Fatal(err)
	}
	return grant
}

func serveSubmit(t *testing.T, gw *Gateway, p *principal, token, transportID string) error {
	t.Helper()
	req := sessionRequest(t, p, token, "deals", []byte("trade"))
	b, err := EncodeWireRequest(req, CodecJSON)
	if err != nil {
		t.Fatal(err)
	}
	_, err = gw.ServeWire(context.Background(), TopicSubmit, b, transportID)
	return err
}

// TestSessionCloseBinding pins the close-side contract: session.close
// from a connection other than the one that opened the session — or from
// a transport with no connection identity — is refused with
// ErrSessionBound and the session stays live for its home connection,
// which alone can close it.
func TestSessionCloseBinding(t *testing.T) {
	gw, alice := bindingGateway(t)
	grant := serveOpen(t, gw, alice, "tcp:1:a")
	for _, foreign := range []string{"tcp:2:b", ""} {
		if _, err := gw.ServeWire(context.Background(), TopicSessionClose, []byte(grant.Token), foreign); !errors.Is(err, ErrSessionBound) {
			t.Fatalf("session.close from %q = %v, want ErrSessionBound", foreign, err)
		}
	}
	if err := serveSubmit(t, gw, alice, grant.Token, "tcp:1:a"); err != nil {
		t.Fatalf("home connection after foreign close: %v", err)
	}
	if _, err := gw.ServeWire(context.Background(), TopicSessionClose, []byte(grant.Token), "tcp:1:a"); err != nil {
		t.Fatalf("session.close from the home connection: %v", err)
	}
	if err := serveSubmit(t, gw, alice, grant.Token, "tcp:1:a"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("submit after home close = %v, want ErrNoSession", err)
	}
	// Unbound sessions (the in-process substrate) close from anywhere, and
	// closing an unknown token stays a no-op.
	unbound := serveOpen(t, gw, alice, "")
	for _, token := range []string{unbound.Token, unbound.Token, "no-such-token"} {
		if _, err := gw.ServeWire(context.Background(), TopicSessionClose, []byte(token), "tcp:3:c"); err != nil {
			t.Fatalf("session.close of %q: %v", token, err)
		}
	}
}

// TestSessionOpenReplayCheckedBeforeVerify: a consumed hello replayed
// with a tampered signature is refused as a replay by the read-only nonce
// lookup, before either ECDSA verify; and a hello that fails verification
// never consumes its nonce, so the genuine hello still opens afterwards.
func TestSessionOpenReplayCheckedBeforeVerify(t *testing.T) {
	f := newBindingFixture(t)
	hello, err := NewSessionHello("alice", f.cert, f.key)
	if err != nil {
		t.Fatal(err)
	}
	forged := hello
	forged.Sig = dcrypto.Signature{R: new(big.Int).Add(hello.Sig.R, big.NewInt(1)), S: hello.Sig.S}
	if _, err := f.mgr.Open(forged); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged hello = %v, want ErrBadSignature", err)
	}
	if _, err := f.mgr.Open(hello); err != nil {
		t.Fatalf("genuine hello after a forged copy: %v", err)
	}
	if _, err := f.mgr.Open(forged); !errors.Is(err, ErrReplayedHello) {
		t.Fatalf("replayed hello with tampered sig = %v, want ErrReplayedHello", err)
	}
	// The identity check also precedes both verifies: a mismatched hello
	// with a garbage signature is a mismatch, not a bad signature.
	mismatched := hello
	mismatched.Principal = "mallory"
	mismatched.Sig = dcrypto.Signature{}
	if _, err := f.mgr.Open(mismatched); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("mismatched hello = %v, want ErrIdentityMismatch", err)
	}
}

// TestSessionOpenCachedCertRevoked: revocation is checked on every open,
// so a certificate the verifier already remembers cannot root a session
// once it is revoked.
func TestSessionOpenCachedCertRevoked(t *testing.T) {
	ca, ps := enroll(t, "alice")
	alice := ps["alice"]
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, time.Now,
		WithRevocationChecks(ca, RevokeCheckResolve, 0))
	if err != nil {
		t.Fatal(err)
	}
	hello := func() SessionHello {
		h, err := NewSessionHello("alice", alice.cert, alice.key)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if _, err := mgr.Open(hello()); err != nil {
		t.Fatalf("first open: %v", err)
	}
	if _, err := mgr.Open(hello()); err != nil {
		t.Fatalf("warm open: %v", err)
	}
	ca.Revoke(alice.cert.Serial)
	if _, err := mgr.Open(hello()); !errors.Is(err, ErrSessionRevoked) {
		t.Fatalf("open under a cached, revoked certificate = %v, want ErrSessionRevoked", err)
	}
}

// TestConfigSharesCertVerifier: Build gives the session manager and the
// authn stage one certificate verifier, so a certificate verified at a
// session open is not verified again on a cert-bearing request.
func TestConfigSharesCertVerifier(t *testing.T) {
	gw, _ := bindingGateway(t)
	authn, ok := gw.chain.stage(StageAuthn).(*Authn)
	if !ok {
		t.Fatal("no authn stage")
	}
	if authn.certs == nil || authn.certs != gw.Sessions().certs {
		t.Fatal("session manager and authn stage hold different certificate verifiers")
	}
}
