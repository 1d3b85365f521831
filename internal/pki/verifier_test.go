package pki

import (
	"crypto/sha256"
	"errors"
	"math/big"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

// enrollForVerifier issues an identity certificate for a fresh key.
func enrollForVerifier(t *testing.T, ca *CA, identity string) Certificate {
	t.Helper()
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Enroll(identity, key.Public())
	if err != nil {
		t.Fatal(err)
	}
	return cert
}

// warmVerifier returns a verifier that has already accepted cert once.
func warmVerifier(t *testing.T, ca *CA, cert Certificate, at time.Time) *CertVerifier {
	t.Helper()
	v := NewCertVerifier(ca.PublicKey())
	key, err := v.Verify(cert, at)
	if err != nil {
		t.Fatalf("cold Verify: %v", err)
	}
	want, _ := cert.Key()
	if !key.Equal(want) {
		t.Fatal("cold Verify returned a different key than the certificate carries")
	}
	if len(v.verified) != 1 {
		t.Fatalf("verified table holds %d entries after one success, want 1", len(v.verified))
	}
	return v
}

func TestCertVerifierWarmHitReturnsCertifiedKey(t *testing.T) {
	ca := newTestCA(t)
	cert := enrollForVerifier(t, ca, "BankA")
	v := warmVerifier(t, ca, cert, time.Now())
	key, err := v.Verify(cert, time.Now())
	if err != nil {
		t.Fatalf("warm Verify: %v", err)
	}
	want, _ := cert.Key()
	if !key.Equal(want) {
		t.Fatal("warm Verify returned a different key than the certificate carries")
	}
	if len(v.verified) != 1 {
		t.Fatalf("a hit grew the table to %d entries", len(v.verified))
	}
}

// TestCertVerifierWarmEntryExpires: the memo never outlives the validity
// window — a cached certificate fails once the clock passes NotAfter, and
// before NotBefore.
func TestCertVerifierWarmEntryExpires(t *testing.T) {
	ca := newTestCA(t)
	cert := enrollForVerifier(t, ca, "BankA")
	v := warmVerifier(t, ca, cert, time.Now())
	if _, err := v.Verify(cert, cert.NotAfter.Add(time.Nanosecond)); !errors.Is(err, ErrExpired) {
		t.Fatalf("warm entry past NotAfter = %v, want ErrExpired", err)
	}
	if _, err := v.Verify(cert, cert.NotBefore.Add(-time.Nanosecond)); !errors.Is(err, ErrExpired) {
		t.Fatalf("warm entry before NotBefore = %v, want ErrExpired", err)
	}
}

// TestCertVerifierRejectsTamperedCachedCert: a single-field change to a
// cached certificate, presented under the signature that was cached, is a
// different set of signed bytes and must fail the CA check. The NotAfter
// case includes an instant that is Equal to the signed one but marshals in
// another zone: a field comparison would accept bytes the CA never signed.
func TestCertVerifierRejectsTamperedCachedCert(t *testing.T) {
	ca := newTestCA(t)
	cert := enrollForVerifier(t, ca, "BankA")
	now := time.Now()
	other, _ := dcrypto.GenerateKey()
	tampers := map[string]func(*Certificate){
		"Identity":  func(c *Certificate) { c.Identity = "Mallory" },
		"PublicKey": func(c *Certificate) { c.PublicKey = other.Public().Bytes() },
		"Serial":    func(c *Certificate) { c.Serial++ },
		"NotAfter":  func(c *Certificate) { c.NotAfter = c.NotAfter.Add(time.Hour) },
		"NotAfterZone": func(c *Certificate) {
			c.NotAfter = c.NotAfter.In(time.FixedZone("UTC+1", 3600))
		},
		"Kind":   func(c *Certificate) { c.Kind = KindOneTime },
		"Issuer": func(c *Certificate) { c.Issuer = "OtherCA" },
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			v := warmVerifier(t, ca, cert, now)
			forged := cert
			tamper(&forged)
			if name == "NotAfterZone" && !forged.NotAfter.Equal(cert.NotAfter) {
				t.Fatal("zone change moved the instant")
			}
			if _, err := v.Verify(forged, now); !errors.Is(err, ErrBadCertificate) {
				t.Fatalf("tampered %s = %v, want ErrBadCertificate", name, err)
			}
			if len(v.verified) != 1 {
				t.Fatalf("a failure was cached: table holds %d entries", len(v.verified))
			}
		})
	}
}

// TestCertVerifierRejectsSignatureAliases: signatures whose fixed-width
// bytes would collide with the cached one's (a negated component) or that
// do not fit the width at all must take the uncached path and fail.
func TestCertVerifierRejectsSignatureAliases(t *testing.T) {
	ca := newTestCA(t)
	cert := enrollForVerifier(t, ca, "BankA")
	now := time.Now()
	v := warmVerifier(t, ca, cert, now)
	wide := new(big.Int).Lsh(big.NewInt(1), 256)
	sigs := map[string]dcrypto.Signature{
		"negR": {R: new(big.Int).Neg(cert.Sig.R), S: cert.Sig.S},
		"negS": {R: cert.Sig.R, S: new(big.Int).Neg(cert.Sig.S)},
		"wide": {R: new(big.Int).Add(cert.Sig.R, wide), S: cert.Sig.S},
		"zero": {R: new(big.Int), S: cert.Sig.S},
	}
	for name, sig := range sigs {
		forged := cert
		forged.Sig = sig
		if _, err := v.Verify(forged, now); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("%s signature = %v, want ErrBadCertificate", name, err)
		}
	}
}

func TestCertVerifierRejectsOtherCA(t *testing.T) {
	ca, other := newTestCA(t), newTestCA(t)
	cert := enrollForVerifier(t, other, "BankA")
	v := NewCertVerifier(ca.PublicKey())
	for i := 0; i < 2; i++ {
		if _, err := v.Verify(cert, time.Now()); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("foreign cert (attempt %d) = %v, want ErrBadCertificate", i, err)
		}
	}
	if len(v.verified) != 0 {
		t.Fatalf("a foreign certificate was cached: %d entries", len(v.verified))
	}
}

// TestCertVerifierNilSignature: nil signature components are an error on
// the uncached path, never a panic and never a cache entry.
func TestCertVerifierNilSignature(t *testing.T) {
	ca := newTestCA(t)
	cert := enrollForVerifier(t, ca, "BankA")
	v := warmVerifier(t, ca, cert, time.Now())
	for name, sig := range map[string]dcrypto.Signature{
		"zero": {},
		"nilR": {S: cert.Sig.S},
		"nilS": {R: cert.Sig.R},
	} {
		forged := cert
		forged.Sig = sig
		if _, err := v.Verify(forged, time.Now()); !errors.Is(err, ErrBadCertificate) {
			t.Fatalf("%s signature = %v, want ErrBadCertificate", name, err)
		}
	}
	if len(v.verified) != 1 {
		t.Fatalf("table holds %d entries, want the one valid certificate", len(v.verified))
	}
}

// TestCertVerifierCapEvictsOne: at the cap an insert evicts a single entry
// — the table never exceeds the cap, and is never cleared wholesale.
func TestCertVerifierCapEvictsOne(t *testing.T) {
	ca := newTestCA(t)
	v := NewCertVerifier(ca.PublicKey())
	for i := 0; i < certCacheCap; i++ {
		var d [sha256.Size]byte
		d[0], d[1], d[2] = byte(i), byte(i>>8), 0xff
		v.verified[d] = dcrypto.PublicKey{}
	}
	for i := 0; i < 3; i++ {
		cert := enrollForVerifier(t, ca, "BankA")
		if _, err := v.Verify(cert, time.Now()); err != nil {
			t.Fatal(err)
		}
		if n := len(v.verified); n != certCacheCap {
			t.Fatalf("table holds %d entries after insert at cap, want exactly %d", n, certCacheCap)
		}
		d, _ := certDigest(cert)
		if _, ok := v.verified[d]; !ok {
			t.Fatal("the newly verified certificate was not cached")
		}
	}
}

// TestCertVerifierConcurrent drives hits, misses and failures from many
// goroutines at once; run under -race.
func TestCertVerifierConcurrent(t *testing.T) {
	ca, other := newTestCA(t), newTestCA(t)
	certs := []Certificate{enrollForVerifier(t, ca, "A"), enrollForVerifier(t, ca, "B")}
	foreign := enrollForVerifier(t, other, "A")
	v := NewCertVerifier(ca.PublicKey())
	now := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := v.Verify(certs[(g+i)%len(certs)], now); err != nil {
					errs <- err
				}
				if _, err := v.Verify(foreign, now); err == nil {
					errs <- errors.New("foreign certificate verified")
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(v.verified) != len(certs) {
		t.Fatalf("table holds %d entries, want %d", len(v.verified), len(certs))
	}
}

// TestCertVerifierWarmAllocs bounds the warm path's allocations (the
// uncached path reads 36).
func TestCertVerifierWarmAllocs(t *testing.T) {
	ca := newTestCA(t)
	cert := enrollForVerifier(t, ca, "BankA")
	now := time.Now()
	v := warmVerifier(t, ca, cert, now)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.Verify(cert, now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("warm Verify allocates %.0f times, want <= 8", allocs)
	}
}
