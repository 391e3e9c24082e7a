package protocols

import "io"

// SessionConn is a synchronous, in-memory connection to a server Session.
// It implements io.ReadWriter for the scanner side: Write feeds the session's
// state machine; Read drains the session's pending output, returning
// ErrTimeout when the server has nothing to say (the in-memory analogue of a
// read deadline expiring). A closed session yields io.EOF once its output is
// drained.
//
// Because sessions are deterministic state machines, no goroutines or real
// timers are involved, which is what lets the synthetic Internet interrogate
// millions of services per second of wall-clock time.
type SessionConn struct {
	sess    Session
	pending []byte
	greeted bool
	closed  bool
}

// NewSessionConn opens a connection to the given server session.
func NewSessionConn(sess Session) *SessionConn {
	return &SessionConn{sess: sess}
}

// Read drains pending server output.
func (c *SessionConn) Read(p []byte) (int, error) {
	if !c.greeted {
		c.greeted = true
		c.pending = append(c.pending, c.sess.Greeting()...)
	}
	if len(c.pending) == 0 {
		if c.closed {
			return 0, io.EOF
		}
		return 0, ErrTimeout
	}
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	return n, nil
}

// Write feeds one client message to the session.
func (c *SessionConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, io.ErrClosedPipe
	}
	if !c.greeted {
		// The client spoke first; the greeting (if any) is still queued
		// ahead of the response, as on a real socket.
		c.greeted = true
		c.pending = append(c.pending, c.sess.Greeting()...)
	}
	resp, closed := c.sess.Respond(p)
	c.pending = append(c.pending, resp...)
	if closed {
		c.closed = true
	}
	return len(p), nil
}
