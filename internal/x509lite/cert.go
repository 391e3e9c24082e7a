// Package x509lite implements the certificates the simulated Internet
// presents: a compact certificate model with deterministic encoding, CA
// issuance, and an append-only certificate transparency log.
//
// It substitutes for real X.509/PKIX (see DESIGN.md): what the pipeline
// consumes of a certificate — its fingerprint, the JA4S-style handshake
// fingerprint derived from its bytes, and the names CT polling feeds to web
// property scanning — is exercised end to end, while ASN.1 and RSA/ECDSA
// mechanics, which the experiments never measure, are replaced by key
// identities and a keyed-hash "signature".
package x509lite

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"time"
)

// Name is a distinguished name.
type Name struct {
	CommonName   string `json:"cn,omitempty"`
	Organization string `json:"o,omitempty"`
	Country      string `json:"c,omitempty"`
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

// Encode returns the deterministic serialized form ("DER" of this PKI).
func (c *Certificate) Encode() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		panic("x509lite: marshal cannot fail: " + err.Error())
	}
	return b
}

// FingerprintSHA256 returns the hex SHA-256 of the encoded certificate.
func (c *Certificate) FingerprintSHA256() string {
	sum := sha256.Sum256(c.Encode())
	return hex.EncodeToString(sum[:])
}

// CA is a certificate authority: a signing identity.
type CA struct {
	Cert   *Certificate
	keyID  uint64
	serial uint64
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
	return &CA{Cert: cert, keyID: keyID, serial: 1}
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
