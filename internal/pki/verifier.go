package pki

import (
	"crypto/sha256"
	"sync"
	"time"

	"dltprivacy/internal/dcrypto"
)

// certCacheCap bounds the verified-certificate table of a CertVerifier. It
// sits well above the principal population a gateway serves concurrently
// (cmd/loadgen runs 1,000), so steady-state handshakes hit; past it, one
// entry is evicted per insert, never the whole table.
const certCacheCap = 4096

// CertVerifier verifies certificates against one pinned CA key and
// remembers the ones that verified, so a relying party that sees the same
// certificate on every session handshake pays the CA signature check once.
// The memo is keyed by a SHA-256 digest over the exact bytes the CA signed
// plus the fixed-width signature: a hit means these bytes were already
// verified under this key, never that some fields compare equal. The
// validity window is still checked on every call, failures are never
// cached, and revocation is the caller's business (as with
// VerifyCertificate). Safe for concurrent use.
type CertVerifier struct {
	caKey dcrypto.PublicKey

	mu       sync.RWMutex
	verified map[[sha256.Size]byte]dcrypto.PublicKey // digest -> certified key
}

// NewCertVerifier creates a verifier pinned to the CA verification key.
func NewCertVerifier(caKey dcrypto.PublicKey) *CertVerifier {
	return &CertVerifier{caKey: caKey, verified: make(map[[sha256.Size]byte]dcrypto.PublicKey)}
}

// Verify checks the certificate's validity window at the given time and
// its CA signature, and returns the parsed certified key. Errors are those
// of VerifyCertificate and Certificate.Key.
func (v *CertVerifier) Verify(cert Certificate, at time.Time) (dcrypto.PublicKey, error) {
	if at.Before(cert.NotBefore) || at.After(cert.NotAfter) {
		return dcrypto.PublicKey{}, ErrExpired
	}
	digest, ok := certDigest(cert)
	if ok {
		v.mu.RLock()
		key, hit := v.verified[digest]
		v.mu.RUnlock()
		if hit {
			return key, nil
		}
	}
	if err := VerifyCertificate(cert, v.caKey, at); err != nil {
		return dcrypto.PublicKey{}, err
	}
	key, err := cert.Key()
	if err != nil {
		return dcrypto.PublicKey{}, err
	}
	if ok {
		v.mu.Lock()
		if len(v.verified) >= certCacheCap {
			for evict := range v.verified {
				delete(v.verified, evict)
				break
			}
		}
		v.verified[digest] = key
		v.mu.Unlock()
	}
	return key, nil
}

// certDigest is the memo key: SHA-256 over the canonical signed payload
// followed by the 64-byte signature. It reports false for a signature
// outside the fixed-width range (nil, non-positive, or wider than 256
// bits), which can never verify and would alias a valid signature's bytes
// (FillBytes drops the sign); such certificates take the uncached path.
func certDigest(cert Certificate) ([sha256.Size]byte, bool) {
	r, s := cert.Sig.R, cert.Sig.S
	if r == nil || s == nil || r.Sign() <= 0 || s.Sign() <= 0 || r.BitLen() > 256 || s.BitLen() > 256 {
		return [sha256.Size]byte{}, false
	}
	b := cert.payload()
	n := len(b)
	b = append(b, make([]byte, 64)...)
	r.FillBytes(b[n : n+32])
	s.FillBytes(b[n+32:])
	return sha256.Sum256(b), true
}
