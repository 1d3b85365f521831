package middleware

import (
	"context"
	"fmt"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
)

// Authn verifies the submitter: the attached certificate must chain to the
// pinned consortium CA key, name the request principal, and the request
// signature must verify against the certified key (§2.1 PKI onboarding).
// The CA check runs through the chain's shared pki.CertVerifier, so a
// certificate the gateway already verified — at a session open or an
// earlier request — costs a digest lookup, not an ECDSA verify; the
// request signature is verified every time.
type Authn struct {
	certs *pki.CertVerifier
	now   func() time.Time
}

// NewAuthn creates the authn stage pinned to the consortium CA key.
func NewAuthn(caKey dcrypto.PublicKey, now func() time.Time) *Authn {
	return newAuthn(pki.NewCertVerifier(caKey), now)
}

// newAuthn creates the authn stage over a verifier shared with the rest of
// the chain (Config.Build).
func newAuthn(certs *pki.CertVerifier, now func() time.Time) *Authn {
	if now == nil {
		now = time.Now
	}
	return &Authn{certs: certs, now: now}
}

// Name implements Stage.
func (a *Authn) Name() string { return StageAuthn }

// Handle implements Stage.
func (a *Authn) Handle(ctx context.Context, req *Request, next Handler) error {
	if req.authenticated {
		// An upstream session stage already bound the request to a
		// verified principal; the full PKI check would be pure overhead.
		return next(ctx, req)
	}
	key, err := a.certs.Verify(req.Cert, a.now())
	if err != nil {
		return fmt.Errorf("authn %s: %w", req.Principal, err)
	}
	if req.Cert.Identity != req.Principal {
		return fmt.Errorf("%w: cert for %q, request by %q",
			ErrIdentityMismatch, req.Cert.Identity, req.Principal)
	}
	d := req.Digest()
	if err := key.Verify(d[:], req.Sig); err != nil {
		return fmt.Errorf("%w: principal %s", ErrBadSignature, req.Principal)
	}
	req.authenticated = true
	return next(ctx, req)
}
