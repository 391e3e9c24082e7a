// Package x509lite implements the certificate subsystem: a compact
// certificate model with deterministic encoding, chain validation against a
// root store, CRL-based revocation, linting, and an append-only certificate
// transparency log.
//
// It substitutes for real X.509/PKIX (see DESIGN.md): the pipeline's
// certificate code paths — parse, validate, lint, revocation refresh, CT
// polling, the cert→host pivot — are exercised end to end, while ASN.1 and
// RSA/ECDSA mechanics, which the experiments never measure, are replaced by
// key identities and a keyed-hash "signature".
package x509lite

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Name is a distinguished name.
type Name struct {
	CommonName   string `json:"cn,omitempty"`
	Organization string `json:"o,omitempty"`
	Country      string `json:"c,omitempty"`
}

// String renders the name in RDN style.
func (n Name) String() string {
	var parts []string
	if n.CommonName != "" {
		parts = append(parts, "CN="+n.CommonName)
	}
	if n.Organization != "" {
		parts = append(parts, "O="+n.Organization)
	}
	if n.Country != "" {
		parts = append(parts, "C="+n.Country)
	}
	return strings.Join(parts, ", ")
}

// Certificate is the compact certificate model.
type Certificate struct {
	Serial    uint64    `json:"serial"`
	Subject   Name      `json:"subject"`
	Issuer    Name      `json:"issuer"`
	NotBefore time.Time `json:"not_before"`
	NotAfter  time.Time `json:"not_after"`
	DNSNames  []string  `json:"dns_names,omitempty"`
	IsCA      bool      `json:"is_ca,omitempty"`
	// KeyID identifies the subject's key pair (stands in for the public key).
	KeyID uint64 `json:"key_id"`
	// Signature binds the certificate body to the issuer's key. It is a
	// keyed hash computed by Sign.
	Signature string `json:"signature,omitempty"`
	// SignerKeyID is the key that produced Signature.
	SignerKeyID uint64 `json:"signer_key_id"`
}

// body returns the to-be-signed encoding.
func (c *Certificate) body() []byte {
	clone := *c
	clone.Signature = ""
	b, err := json.Marshal(&clone)
	if err != nil {
		panic("x509lite: marshal cannot fail: " + err.Error())
	}
	return b
}

// Sign sets the certificate's signature under the given signing key.
func (c *Certificate) Sign(signerKeyID uint64) {
	c.SignerKeyID = signerKeyID
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], signerKeyID)
	h := sha256.New()
	h.Write(key[:])
	h.Write(c.body())
	c.Signature = hex.EncodeToString(h.Sum(nil)[:16])
}

// checkSignature verifies Signature against SignerKeyID.
func (c *Certificate) checkSignature() bool {
	want := *c
	want.Sign(c.SignerKeyID)
	return want.Signature == c.Signature
}

// Encode returns the deterministic serialized form ("DER" of this PKI).
func (c *Certificate) Encode() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic("x509lite: marshal cannot fail: " + err.Error())
	}
	return b
}

// Parse decodes a certificate produced by Encode.
func Parse(der []byte) (*Certificate, error) {
	if len(der) == 0 {
		return nil, errors.New("x509lite: empty certificate")
	}
	var c Certificate
	if err := json.Unmarshal(der, &c); err != nil {
		return nil, fmt.Errorf("x509lite: parse: %w", err)
	}
	if c.Subject.CommonName == "" && len(c.DNSNames) == 0 {
		return nil, errors.New("x509lite: certificate names nothing")
	}
	return &c, nil
}

// FingerprintSHA256 returns the hex SHA-256 of the encoded certificate.
func (c *Certificate) FingerprintSHA256() string {
	sum := sha256.Sum256(c.Encode())
	return hex.EncodeToString(sum[:])
}

// SelfSigned reports whether subject and issuer are the same entity.
func (c *Certificate) SelfSigned() bool {
	return c.Subject == c.Issuer && c.SignerKeyID == c.KeyID
}

// MatchesName reports whether the certificate covers name, honouring
// single-label wildcards.
func (c *Certificate) MatchesName(name string) bool {
	name = strings.ToLower(name)
	candidates := c.DNSNames
	if len(candidates) == 0 && c.Subject.CommonName != "" {
		candidates = []string{c.Subject.CommonName}
	}
	for _, d := range candidates {
		d = strings.ToLower(d)
		if d == name {
			return true
		}
		if rest, ok := strings.CutPrefix(d, "*."); ok {
			if suffix, found := strings.CutPrefix(name, firstLabel(name)+"."); found && suffix == rest {
				return true
			}
		}
	}
	return false
}

func firstLabel(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// CA is a certificate authority: a signing identity plus its revocation list.
type CA struct {
	Cert   *Certificate
	keyID  uint64
	serial uint64
	// revoked is the CRL content: serials this CA has revoked.
	revoked map[uint64]time.Time
}

// NewCA creates a self-signed CA.
func NewCA(name string, keyID uint64, notBefore time.Time, lifetime time.Duration) *CA {
	n := Name{CommonName: name, Organization: name, Country: "US"}
	cert := &Certificate{
		Serial:    1,
		Subject:   n,
		Issuer:    n,
		NotBefore: notBefore,
		NotAfter:  notBefore.Add(lifetime),
		IsCA:      true,
		KeyID:     keyID,
	}
	cert.Sign(keyID)
	return &CA{Cert: cert, keyID: keyID, serial: 1, revoked: make(map[uint64]time.Time)}
}

// Issue signs a leaf certificate for the given names.
func (ca *CA) Issue(subject Name, dnsNames []string, keyID uint64, notBefore time.Time, lifetime time.Duration) *Certificate {
	ca.serial++
	cert := &Certificate{
		Serial:    ca.serial,
		Subject:   subject,
		Issuer:    ca.Cert.Subject,
		NotBefore: notBefore,
		NotAfter:  notBefore.Add(lifetime),
		DNSNames:  dnsNames,
		KeyID:     keyID,
	}
	cert.Sign(ca.keyID)
	return cert
}

// Revoke adds a serial to the CA's CRL.
func (ca *CA) Revoke(serial uint64, at time.Time) {
	ca.revoked[serial] = at
}

// CRL returns the CA's current revocation list.
func (ca *CA) CRL() *CRL {
	out := &CRL{Issuer: ca.Cert.Subject, Revoked: make(map[uint64]time.Time, len(ca.revoked))}
	for s, t := range ca.revoked {
		out.Revoked[s] = t
	}
	return out
}

// CRL is a published certificate revocation list. Censys moved from OCSP to
// CRLs in 2024 (paper §4.4); CRLs are the only revocation source here.
type CRL struct {
	Issuer  Name
	Revoked map[uint64]time.Time
}

// Contains reports whether serial is revoked.
func (c *CRL) Contains(serial uint64) bool {
	if c == nil {
		return false
	}
	_, ok := c.Revoked[serial]
	return ok
}
