package protocols

import "io"

// captureConn records the first client message a scanner writes and then
// starves it, so a protocol's canonical opening probe can be extracted from
// its Scan implementation without duplicating wire formats.
type captureConn struct {
	first []byte
}

func (c *captureConn) Read(p []byte) (int, error) { return 0, ErrTimeout }

func (c *captureConn) Write(p []byte) (int, error) {
	if c.first == nil {
		c.first = append([]byte(nil), p...)
	}
	return len(p), nil
}

// captureFirst runs a scanner against a captureConn and returns its first
// write; register calls it once per protocol at package init.
func captureFirst(p *Protocol) []byte {
	cw := &captureConn{}
	_, _ = p.Scan(cw) // the scanner errors out on the starved read; we only need the write
	return cw.first
}

// FirstProbe returns a copy of the first message the named protocol's
// scanner sends, or nil for server-first protocols. Discovery uses it as the
// payload of protocol-specific UDP probes (paper §4.1: "protocol-specific
// UDP packets").
func FirstProbe(name string) []byte {
	p := Lookup(name)
	if p == nil {
		return nil
	}
	return append([]byte(nil), p.firstProbe...)
}

var _ io.ReadWriter = (*captureConn)(nil)
