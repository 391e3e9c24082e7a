// Package interro implements Phase 2 of two-phase scanning (paper §4.2):
// stateful application-layer interrogation of the candidates Phase 1
// surfaces. For each candidate it detects the L7 protocol with an LZR-style
// algorithm, completes the full protocol handshake, and assembles the
// structured, non-ephemeral service record the pipeline journals.
//
// Detection order follows the paper: listen for server-initiated
// communication; try the IANA-assigned protocol for the port; try a TLS
// handshake (and re-run detection inside the session); then try common
// triggers (an HTTP GET) and fingerprint whatever comes back. A service is
// labeled with a protocol only if that protocol's full handshake completes —
// otherwise it is recorded as UNKNOWN with its raw banner.
package interro

import (
	"io"
	"strings"
	"sync/atomic"
	"time"

	"censysmap/internal/cqrs"
	"censysmap/internal/discovery"
	"censysmap/internal/entity"
	"censysmap/internal/protocols"
	"censysmap/internal/simnet"
)

// Interrogator performs Phase 2 scans against the synthetic Internet. One
// interrogator per PoP is shared by all interrogation workers, so its
// counters are atomic; the detection ladder itself is stateless per call.
type Interrogator struct {
	net *simnet.Internet
	// Scanner identifies the engine to the network.
	Scanner simnet.Scanner
	// Budget bounds the virtual time one candidate may consume (see
	// budget.go). Set before the first Interrogate call; the zero value
	// keeps legacy unlimited behavior (modulo the hard read cap).
	Budget Budget

	attempts   atomic.Uint64
	noContact  atomic.Uint64
	identified atomic.Uint64
	unknown    atomic.Uint64
	deadline   deadlineCounters
}

// Stats counts interrogation outcomes.
type Stats struct {
	Attempts   uint64
	NoContact  uint64 // candidate did not respond at L7 (stale or lost)
	Identified uint64 // full handshake completed
	Unknown    uint64 // data received but no protocol verified
}

// New creates an interrogator.
func New(net *simnet.Internet, scanner simnet.Scanner) *Interrogator {
	return &Interrogator{net: net, Scanner: scanner}
}

// Stats returns cumulative counters.
func (i *Interrogator) Stats() Stats {
	return Stats{
		Attempts:   i.attempts.Load(),
		NoContact:  i.noContact.Load(),
		Identified: i.identified.Load(),
		Unknown:    i.unknown.Load(),
	}
}

// Interrogate turns one candidate into a write-side observation. A candidate
// that no longer answers yields an unsuccessful observation, which is what
// drives pending-removal for known services.
func (i *Interrogator) Interrogate(cand discovery.Candidate, now time.Time) cqrs.Observation {
	i.attempts.Add(1)
	obs := cqrs.Observation{
		Addr: cand.Addr, Port: cand.Port, Transport: cand.Transport,
		Time: now, PoP: cand.PoP, Method: cand.Method,
	}
	sc := i.Scanner
	bs := i.newBudgetState()
	defer bs.release()

	var res *protocols.Result
	if cand.Transport == entity.UDP {
		res = i.interrogateUDP(sc, cand, bs)
	} else {
		res = i.interrogateTCP(sc, cand, bs)
	}
	if res == nil {
		i.noContact.Add(1)
		return obs
	}
	if res.Complete {
		i.identified.Add(1)
	} else {
		i.unknown.Add(1)
	}
	obs.Success = true
	obs.Service = buildService(cand, res)
	return obs
}

// interrogateUDP re-runs the known protocol's full handshake; the discovery
// probe already identified the protocol by eliciting a reply.
func (i *Interrogator) interrogateUDP(sc simnet.Scanner, cand discovery.Candidate, bs *budgetState) *protocols.Result {
	p := protocols.Lookup(cand.UDPProtocol)
	if p == nil {
		return nil
	}
	conn, ok := i.net.Connect(sc, cand.Addr, cand.Port, entity.UDP)
	if !ok {
		return nil
	}
	res, err := p.Scan(bs.wrap(conn))
	if err != nil && res == nil {
		return nil
	}
	return res
}

// connect opens a fresh L7 connection to the candidate with a fresh
// per-connection budget. Once the candidate's total budget is exhausted it
// refuses, which is what short-circuits the remaining ladder steps.
func (i *Interrogator) connect(sc simnet.Scanner, cand discovery.Candidate, bs *budgetState) (io.ReadWriter, bool) {
	if bs.totalExhausted {
		return nil, false
	}
	conn, ok := i.net.Connect(sc, cand.Addr, cand.Port, entity.TCP)
	if !ok {
		return nil, false
	}
	return bs.wrap(conn), true
}

// interrogateTCP runs the LZR-style detection ladder.
func (i *Interrogator) interrogateTCP(sc simnet.Scanner, cand discovery.Candidate, bs *budgetState) *protocols.Result {
	conn, ok := i.connect(sc, cand, bs)
	if !ok {
		return nil
	}

	// Step 1: listen for server-initiated communication.
	banner := readBanner(conn)
	if len(banner) > 0 {
		if name := protocols.Identify(banner); name != "" {
			if res := i.fullScan(sc, cand, name, nil, bs); res != nil {
				return res
			}
		}
		// Data, but nothing we can verify.
		return unknownResult(banner)
	}

	// Step 2: try the IANA-assigned protocol for the port (client-first
	// protocols never greet, so silence is expected here).
	for _, p := range protocols.ForPort(cand.Port, entity.TCP) {
		if res := i.fullScan(sc, cand, p.Name, nil, bs); res != nil {
			return res
		}
	}

	// Step 3: try TLS; if it succeeds, repeat identification inside the
	// session.
	if res := i.tryTLS(sc, cand, bs); res != nil {
		return res
	}

	// Step 4: common trigger — an HTTP GET — and fingerprint the response
	// (e.g. an SMTP error identifies SMTP).
	conn, ok = i.connect(sc, cand, bs)
	if !ok {
		return nil
	}
	httpRes, err := protocols.ScanHTTP(conn)
	if err == nil && httpRes.Complete {
		return httpRes
	}
	if httpRes != nil && httpRes.Banner != "" {
		if name := protocols.Identify([]byte(httpRes.Banner)); name != "" && name != "HTTP" {
			if res := i.fullScan(sc, cand, name, nil, bs); res != nil {
				return res
			}
		}
		return unknownResult([]byte(httpRes.Banner))
	}

	// Step 5: the remaining client-first handshake battery — binary
	// protocols (MySQL aside, mostly ICS) that neither greet nor answer
	// HTTP. This is the expensive tail of detection that only a large
	// scanner library covers.
	tried := map[string]bool{"HTTP": true}
	for _, p := range protocols.ForPort(cand.Port, entity.TCP) {
		tried[p.Name] = true
	}
	for _, p := range protocols.All() {
		if p.Transport != entity.TCP || tried[p.Name] {
			continue
		}
		if res := i.fullScan(sc, cand, p.Name, nil, bs); res != nil {
			return res
		}
	}

	// L4-responsive but mute at L7 (LZR's dominant finding on unexpected
	// ports): nothing to record.
	return nil
}

// tryTLS attempts a TLS-lite handshake and, on success, runs the detection
// ladder on the inner stream, tagging results with session info.
func (i *Interrogator) tryTLS(sc simnet.Scanner, cand discovery.Candidate, bs *budgetState) *protocols.Result {
	conn, ok := i.connect(sc, cand, bs)
	if !ok {
		return nil
	}
	info, inner, _, err := protocols.StartTLS(conn)
	if err != nil {
		return nil
	}

	// Inside the session: banner first, then IANA protocol, then HTTP.
	banner := readBanner(inner)
	if len(banner) > 0 {
		if name := protocols.Identify(banner); name != "" {
			if res := i.fullScan(sc, cand, name, info, bs); res != nil {
				return res
			}
		}
		res := unknownResult(banner)
		applyTLS(res, info)
		return res
	}
	var names []string
	for _, p := range protocols.ForPort(cand.Port, entity.TCP) {
		names = append(names, p.Name)
	}
	if len(names) == 0 || names[0] != "HTTP" {
		names = append(names, "HTTP")
	}
	for _, name := range names {
		if res := i.fullScan(sc, cand, name, info, bs); res != nil {
			return res
		}
	}
	return nil
}

// fullScan reconnects and drives the named protocol's complete handshake,
// inside TLS when tlsInfo is non-nil. It returns nil unless the handshake
// verifies.
func (i *Interrogator) fullScan(sc simnet.Scanner, cand discovery.Candidate, name string, tlsInfo *protocols.TLSInfo, bs *budgetState) *protocols.Result {
	p := protocols.Lookup(name)
	if p == nil || p.Transport != entity.TCP {
		return nil
	}
	conn, ok := i.connect(sc, cand, bs)
	if !ok {
		return nil
	}
	stream := io.ReadWriter(conn)
	if tlsInfo != nil {
		freshInfo, inner, _, err := protocols.StartTLS(conn)
		if err != nil {
			return nil
		}
		tlsInfo = freshInfo
		stream = inner
	}
	res, err := p.Scan(stream)
	if err != nil || res == nil || !res.Complete {
		return nil
	}
	applyTLS(res, tlsInfo)
	return res
}

func applyTLS(res *protocols.Result, info *protocols.TLSInfo) {
	if info == nil {
		return
	}
	res.TLS = true
	res.CertSHA256 = info.CertSHA256
	if res.Attributes == nil {
		res.Attributes = make(map[string]string)
	}
	// Follow-up fingerprint handshakes (JARM/JA4S-like) run when TLS is
	// present (paper §5.2 async follow-ups; computed inline here).
	res.Attributes["tls.ja4s"] = info.JA4S
}

// readBanner waits for unsolicited server output, at most 2 KB of it.
func readBanner(conn io.Reader) []byte {
	banner, _ := protocols.ReadUpTo(conn, 2048)
	return banner
}

// unknownResult records a service that sent data no scanner could verify:
// the raw response is captured (paper §4.2) but the service is UNKNOWN.
func unknownResult(banner []byte) *protocols.Result {
	return &protocols.Result{
		Protocol: "UNKNOWN",
		Banner:   strings.ToValidUTF8(clip(string(banner)), "."),
	}
}

func clip(s string) string {
	if len(s) > 256 {
		return s[:256]
	}
	return s
}

// buildService assembles the journaled service record from a scan result.
func buildService(cand discovery.Candidate, res *protocols.Result) *entity.Service {
	svc := &entity.Service{
		Port:       cand.Port,
		Transport:  cand.Transport,
		Protocol:   res.Protocol,
		TLS:        res.TLS,
		CertSHA256: res.CertSHA256,
		Banner:     res.Banner,
		Method:     cand.Method,
		Verified:   res.Complete,
		SourcePoP:  cand.PoP,
	}
	if len(res.Attributes) > 0 {
		svc.Attributes = make(map[string]string, len(res.Attributes))
		for k, v := range res.Attributes {
			svc.Attributes[k] = v
		}
	}
	return svc
}
