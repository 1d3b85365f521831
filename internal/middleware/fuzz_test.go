package middleware

import (
	"context"
	"encoding/json"
	"math/big"
	"testing"
	"time"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/paillier"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/tee"
	"dltprivacy/internal/transport"
)

// FuzzWireRequest throws arbitrary bytes at every transport topic the
// gateway serves — gateway.submit, session.open, session.close,
// revocation.notify — so malformed framing, forged session tokens, and
// corrupted certificates can reject requests but never panic the process.
// The gateway runs the full revocation-aware pipeline, so the fuzz input
// crosses the wire decode, the session/token path, authn, and envelope
// sealing.
func FuzzWireRequest(f *testing.F) {
	ca, err := pki.NewCA("fuzz-ca")
	if err != nil {
		f.Fatal(err)
	}
	key, err := dcrypto.GenerateKey()
	if err != nil {
		f.Fatal(err)
	}
	cert, err := ca.Enroll("alice", key.Public())
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{
		Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h", "revokecheck": "resolve", "reqauth": "mac"}},
			{Name: StageAuthn},
			{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
			{Name: StageAudit},
		},
		// Binary-codec gateway: the fuzzer exercises both framings (JSON
		// decode and the binary v2 frame reader) plus the MAC verify path.
		// Tracing is on so wire-carried trace IDs cross the sampler and
		// span recording too.
		Codec: CodecBinary,
		Trace: "8",
	}
	env := Env{
		CAKey:     ca.PublicKey(),
		Directory: StaticDirectory{"deals": {"alice": key.Public()}},
		Log:       audit.NewLog(),
		Revoker:   ca,
	}
	gw, err := NewGateway("fuzz-gw", cfg, env, ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		f.Fatal(err)
	}
	net := transport.New()
	if err := gw.AttachTransport(context.Background(), net, "gateway"); err != nil {
		f.Fatal(err)
	}
	grant, err := gw.Sessions().Open(mustHello(f, "alice", cert, key))
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: a well-formed session submission, near-miss mutations of it,
	// a valid hello, and framing junk.
	good := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	if err := SignRequest(good, key); err != nil {
		f.Fatal(err)
	}
	goodWire, err := json.Marshal(wireRequest{
		Channel: good.Channel, Principal: good.Principal, Payload: good.Payload,
		Sig: good.Sig, Session: good.SessionToken,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodWire)
	// The same submission in the binary v2 framing, with a MAC instead of
	// a signature, plus mutations of the frame structure.
	macGood := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	MACRequest(macGood, grant.MacKey)
	goodBinary, err := EncodeWireRequest(macGood, CodecBinary)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goodBinary)
	// The same binary submission carrying a trace ID, so the fuzzer mutates
	// the trace uvarint between cert and meta, plus traced JSON frames.
	traced := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"),
		SessionToken: grant.Token, TraceID: 0xfeedface}
	MACRequest(traced, grant.MacKey)
	tracedBinary, err := EncodeWireRequest(traced, CodecBinary)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tracedBinary)
	f.Add(tracedBinary[:len(tracedBinary)-1])
	f.Add([]byte(`{"channel":"deals","principal":"alice","trace":12345}`))
	tracedHello := mustHello(f, "alice", cert, key)
	tracedHello.TraceID = 1
	tracedHelloSeed, err := json.Marshal(tracedHello)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tracedHelloSeed)
	f.Add(goodBinary[:len(goodBinary)/2])
	f.Add(append(append([]byte{}, goodBinary...), 0xff))
	f.Add([]byte{binaryMagic})
	f.Add([]byte{binaryMagic, binaryKindRequest})
	f.Add([]byte{binaryMagic, binaryKindRequest, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{binaryMagic, binaryKindEnvelope, 0x01, 's'})
	f.Add([]byte(`{"channel":"deals","principal":"alice","session":"deadbeef"}`))
	f.Add([]byte(`{"channel":"deals","principal":"alice","cert":{"serial":1},"sig":{}}`))
	f.Add([]byte(`{"session":"` + grant.Token + `"}`))
	helloSeed, err := json.Marshal(mustHello(f, "alice", cert, key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(helloSeed)
	// Regression seed: a zero-valued cert inside a fresh validity window
	// used to reach ecdsa.Verify with nil signature components and panic
	// (fixed in dcrypto.PublicKey.Verify).
	f.Add([]byte(`{"issuedAt":"` + time.Now().UTC().Format(time.RFC3339) + `","cert":{"notAfter":"2100-01-01T00:00:00Z"}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte("\x00\x01\x02session\xff"))

	// A second gateway runs the declarative privacy chain — anoncred in
	// place of certificate authn, a range-proof gate, TEE attestation, and
	// the terminal Paillier aggregator — so fuzzed meta blobs cross the
	// proof decoders, the curve-point sanitation, and the aggregand bounds
	// checks without panicking group arithmetic.
	memberAttrs := []string{"role=member"}
	issuer := anoncred.NewIssuer("fuzz-issuer")
	credKey, err := issuer.RegisterAttributeSet(memberAttrs)
	if err != nil {
		f.Fatal(err)
	}
	wallet, err := anoncred.NewWallet()
	if err != nil {
		f.Fatal(err)
	}
	if err := wallet.RequestTokens(issuer, memberAttrs, 4); err != nil {
		f.Fatal(err)
	}
	collector, err := paillier.GenerateKey(512)
	if err != nil {
		f.Fatal(err)
	}
	man, err := tee.NewManufacturer()
	if err != nil {
		f.Fatal(err)
	}
	encl, err := man.Provision()
	if err != nil {
		f.Fatal(err)
	}
	echo := tee.Program{Name: "fuzz-echo", Version: "1", Run: func(input, state []byte) ([]byte, []byte, error) {
		return input, state, nil
	}}
	if err := encl.Load(echo); err != nil {
		f.Fatal(err)
	}
	privCfg := Config{Stages: []StageConfig{
		{Name: StageAnonCred, Params: map[string]string{"mode": "present", "attrs": "role=member", "scope": "fuzz-scope"}},
		{Name: StageZKProof, Params: map[string]string{"mode": "range", "bits": "16"}},
		{Name: StageAttest, Params: map[string]string{"mode": "tee", "bind": "output"}},
		{Name: StageAudit},
		{Name: StageAggregate, Params: map[string]string{"mode": "paillier", "size": "4"}},
	}}
	privEnv := Env{
		AnonCredKey: credKey,
		Attestation: &AttestationPolicy{Manufacturer: man.PublicKey(), Measurement: echo.Measurement()},
		Aggregator:  &collector.PublicKey,
		Log:         audit.NewLog(),
	}
	privGW, err := NewGateway("fuzz-priv-gw", privCfg, privEnv, ordering.New("priv-op", ordering.VisibilityEnvelope))
	if err != nil {
		f.Fatal(err)
	}
	if err := privGW.AttachTransport(context.Background(), net, "privgateway"); err != nil {
		f.Fatal(err)
	}
	// A fully-attested pseudonymous contribution: the payload is a Paillier
	// aggregand echoed through the enclave, so the anoncred, zkproof,
	// attest, and aggregate decoders all fire on this one seed and on every
	// mutation of it.
	aggPayload, err := EncodeAggregand(&collector.PublicKey, big.NewInt(421))
	if err != nil {
		f.Fatal(err)
	}
	output, att, err := encl.Execute(aggPayload)
	if err != nil {
		f.Fatal(err)
	}
	privReq := &Request{Channel: "deals", Payload: output}
	if _, err := AttachPresentation(privReq, wallet, memberAttrs, "fuzz-scope"); err != nil {
		f.Fatal(err)
	}
	if _, err := AttachRangeProof(privReq, big.NewInt(421), 16); err != nil {
		f.Fatal(err)
	}
	if err := AttachAttestation(privReq, att); err != nil {
		f.Fatal(err)
	}
	privWire, err := json.Marshal(wireRequest{
		Channel: privReq.Channel, Principal: privReq.Principal,
		Payload: privReq.Payload, Meta: privReq.Meta,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(privWire)
	privBinary, err := EncodeWireRequest(privReq, CodecBinary)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(privBinary)
	// Hostile stage params: half-decoded curve points (nil coordinates,
	// zero points, coords past the field prime), truncated presentations,
	// and an aggregand ciphertext sitting exactly on the N² group boundary.
	f.Add([]byte(`{"channel":"deals","principal":"x","meta":{"zkproof":"{\"Comm\":{\"X\":0}}"}}`))
	f.Add([]byte(`{"channel":"deals","principal":"x","meta":{"zkproof":"{\"Comm\":{\"X\":1,\"Y\":1},\"Proof\":{\"Bits\":64}}"}}`))
	f.Add([]byte(`{"channel":"deals","meta":{"anoncred":"{\"Nym\":{\"X\":115792089210356248762697446949407573530086143415290314195533631308867097853951,\"Y\":2}}"}}`))
	f.Add([]byte(`{"channel":"deals","meta":{"anoncred":"{"}}`))
	f.Add([]byte(`{"channel":"deals","meta":{"attestation":"{\"Measurement\":[0]}"}}`))
	f.Add([]byte(`{"channel":"deals","meta":{"attestation":"null"}}`))
	boundary, err := json.Marshal(wireAggregand{Scheme: aggregandScheme, C: collector.PublicKey.N2.Bytes()})
	if err != nil {
		f.Fatal(err)
	}
	boundaryWire, err := json.Marshal(wireRequest{Channel: "deals", Principal: "x", Payload: boundary, Meta: privReq.Meta})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(boundaryWire)
	f.Add([]byte(`{"channel":"deals","payload":"eyJzY2hlbWUiOiJwYWlsbGllci92MSIsImMiOiIifQ=="}`))

	topics := []string{TopicSubmit, TopicSessionOpen, TopicSessionClose, TopicRevocationNotify, "unknown.topic"}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, topic := range topics {
			// Errors are the expected outcome for junk; the invariant under
			// test is that no input can panic the gateway or wedge a lock.
			_, _ = net.Send(transport.Message{From: "fuzzer", To: "gateway", Topic: topic, Payload: data})
			_, _ = net.Send(transport.Message{From: "fuzzer", To: "privgateway", Topic: topic, Payload: data})
		}
	})
}

func mustHello(f *testing.F, principal string, cert pki.Certificate, key *dcrypto.PrivateKey) SessionHello {
	f.Helper()
	hello, err := NewSessionHelloAt(principal, cert, key, time.Now())
	if err != nil {
		f.Fatal(err)
	}
	return hello
}

// FuzzSessionOpen throws arbitrary bytes at the handshake decoder
// (session.open over a connection-bound transport). No input may panic the
// gateway, and every grant it hands out must belong to a hello whose
// certificate chains to the CA and whose signature verifies against that
// certificate — checked here by the uncached pki.VerifyCertificate, so a
// memo that accepted bytes the CA never signed would be caught.
func FuzzSessionOpen(f *testing.F) {
	ca, err := pki.NewCA("fuzz-ca")
	if err != nil {
		f.Fatal(err)
	}
	key, err := dcrypto.GenerateKey()
	if err != nil {
		f.Fatal(err)
	}
	cert, err := ca.Enroll("alice", key.Public())
	if err != nil {
		f.Fatal(err)
	}
	cfg := Config{Stages: []StageConfig{
		{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h", "reqauth": "mac"}},
		{Name: StageAuthn},
	}}
	env := Env{CAKey: ca.PublicKey(), Log: audit.NewLog()}
	gw, err := NewGateway("fuzz-open-gw", cfg, env, ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		f.Fatal(err)
	}
	// Warm the verifier with the genuine certificate, so mutated copies of
	// it probe the cached path.
	if _, err := gw.Sessions().Open(mustHello(f, "alice", cert, key)); err != nil {
		f.Fatal(err)
	}

	seed := func(h SessionHello) []byte {
		b, err := json.Marshal(h)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := seed(mustHello(f, "alice", cert, key))
	f.Add(valid)
	f.Add(seed(mustHello(f, "alice", cert, key)))
	nullSig := mustHello(f, "alice", cert, key)
	nullSig.Sig = dcrypto.Signature{}
	f.Add(seed(nullSig))
	nullCertSig := mustHello(f, "alice", cert, key)
	nullCertSig.Cert.Sig = dcrypto.Signature{}
	f.Add(seed(nullCertSig))
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	f.Add([]byte(`{"principal":"alice","cert":{"identity":"alice","sig":{"R":-1,"S":1}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		reply, err := gw.ServeWire(context.Background(), TopicSessionOpen, data, "fuzz")
		if err != nil {
			return
		}
		var hello SessionHello
		if err := json.Unmarshal(data, &hello); err != nil {
			t.Fatalf("granted a session for an undecodable hello: %v", err)
		}
		var grant SessionGrant
		if err := json.Unmarshal(reply, &grant); err != nil {
			t.Fatalf("undecodable grant: %v", err)
		}
		if grant.Principal != hello.Principal || hello.Cert.Identity != hello.Principal {
			t.Fatalf("grant for %q from a hello by %q under a cert for %q",
				grant.Principal, hello.Principal, hello.Cert.Identity)
		}
		if err := pki.VerifyCertificate(hello.Cert, ca.PublicKey(), time.Now()); err != nil {
			t.Fatalf("granted a session under a certificate the CA did not sign: %v", err)
		}
		certKey, err := hello.Cert.Key()
		if err != nil {
			t.Fatalf("granted a session under an unparseable key: %v", err)
		}
		d := helloDigest(hello.Principal, hello.Nonce, hello.IssuedAt)
		if err := certKey.Verify(d[:], hello.Sig); err != nil {
			t.Fatalf("granted a session for a hello whose signature does not verify: %v", err)
		}
	})
}
