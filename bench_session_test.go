package dltprivacy_test

import (
	"context"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// BenchmarkGatewaySession compares the per-request security path against
// the session-amortized one on an otherwise identical pipeline:
//
//   - per-request: every submission pays full certificate verification
//     (authn) and a fresh per-member hybrid key-wrap (encrypt).
//   - session: certificate verification is paid once at session open; each
//     submission verifies one signature against the cached principal, and
//     the channel data key is wrapped once per epoch and reused.
//
// The middle variant isolates the two contributions by amortizing authn
// while still paying the per-request wrap.
func BenchmarkGatewaySession(b *testing.B) {
	env := newGatewayBenchEnv(b)
	cases := []struct {
		name    string
		stages  []middleware.StageConfig
		session bool
	}{
		{
			name: "per-request(authn+wrap)",
			stages: []middleware.StageConfig{
				{Name: middleware.StageAuthn},
				{Name: middleware.StageEncrypt},
			},
		},
		{
			name: "session(amortized-authn)",
			stages: []middleware.StageConfig{
				{Name: middleware.StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}},
				{Name: middleware.StageEncrypt},
			},
			session: true,
		},
		{
			name: "session(amortized-authn+keycache)",
			stages: []middleware.StageConfig{
				{Name: middleware.StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}},
				{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
			},
			session: true,
		},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			benchGatewaySession(b, env, tc.stages, tc.session)
		})
	}
}

func benchGatewaySession(b *testing.B, env *gatewayBenchEnv, stages []middleware.StageConfig, withSession bool) {
	b.Helper()
	orderer := ordering.New("bench-orderer", ordering.VisibilityEnvelope)
	sink := &nullBackend{}
	gwEnv := middleware.Env{
		CAKey:     env.ca.PublicKey(),
		Directory: middleware.StaticDirectory{"deals": env.memberKeys},
		Log:       audit.NewLog(),
		Sleep:     func(time.Duration) {},
	}
	gw, err := middleware.NewGateway("bench-gw", middleware.Config{Stages: stages}, gwEnv, orderer)
	if err != nil {
		b.Fatal(err)
	}
	gw.Bind("deals", sink)

	// One handshake per member, outside the timed loop: the cost being
	// amortized is paid here.
	tokens := make(map[string]string)
	if withSession {
		mgr := gw.Sessions()
		for member, key := range env.keys {
			hello, err := middleware.NewSessionHello(member, env.certs[member], key)
			if err != nil {
				b.Fatal(err)
			}
			grant, err := mgr.Open(hello)
			if err != nil {
				b.Fatal(err)
			}
			tokens[member] = grant.Token
		}
	}

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := env.templates[i%len(env.templates)]
		if withSession {
			// Token instead of certificate: the session path never
			// touches the cert.
			req.SessionToken = tokens[req.Principal]
			req.Cert = pki.Certificate{}
		}
		if err := gw.Submit(ctx, &req); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if stats := gw.Stats(); stats.Ordered != uint64(b.N) || sink.txs != b.N {
		b.Fatalf("ordered %d, backend committed %d, want %d", stats.Ordered, sink.txs, b.N)
	}
}

// BenchmarkSessionOpen prices the signed handshake behind session.open on a
// gateway-built session manager:
//
//   - cert=cold: every open presents a certificate the gateway has never
//     seen, paying two ECDSA verifies (the CA signature and the hello).
//   - cert=warm: one certificate reopened; the CA signature was verified
//     at its first open, so each open pays only the hello verify.
//
// Hellos (and, for cold, certificates) are signed before the timer starts;
// each session is closed again inside the loop so the table stays flat.
func BenchmarkSessionOpen(b *testing.B) {
	for _, tc := range []struct {
		name string
		cold bool
	}{{"cert=cold", true}, {"cert=warm", false}} {
		b.Run(tc.name, func(b *testing.B) {
			benchSessionOpen(b, tc.cold)
		})
	}
}

func benchSessionOpen(b *testing.B, cold bool) {
	ca, err := pki.NewCA("bench-ca")
	if err != nil {
		b.Fatal(err)
	}
	gw, err := middleware.NewGateway("bench-gw", middleware.Config{Stages: []middleware.StageConfig{
		{Name: middleware.StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}},
		{Name: middleware.StageAuthn},
	}}, middleware.Env{CAKey: ca.PublicKey(), Log: audit.NewLog()},
		ordering.New("bench-orderer", ordering.VisibilityEnvelope))
	if err != nil {
		b.Fatal(err)
	}
	mgr := gw.Sessions()
	enroll := func() (pki.Certificate, *dcrypto.PrivateKey) {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			b.Fatal(err)
		}
		cert, err := ca.Enroll("bench-principal", key.Public())
		if err != nil {
			b.Fatal(err)
		}
		return cert, key
	}
	cert, key := enroll()
	hellos := make([]middleware.SessionHello, b.N)
	for i := range hellos {
		if cold {
			cert, key = enroll()
		}
		if hellos[i], err = middleware.NewSessionHello("bench-principal", cert, key); err != nil {
			b.Fatal(err)
		}
	}
	if !cold {
		// Warm the verifier with the one certificate.
		warm, err := middleware.NewSessionHello("bench-principal", cert, key)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mgr.Open(warm); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range hellos {
		grant, err := mgr.OpenBound(hellos[i], "bench-conn")
		if err != nil {
			b.Fatal(err)
		}
		mgr.Close(grant.Token)
	}
}
