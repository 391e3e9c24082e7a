//go:build !race

package protocols

import "testing"

// TestSilentReadAllocatesNothing: a read that times out borrows pooled
// scratch and allocates nothing; the old fresh 4 KB buffer per read was one
// allocation. (Race instrumentation makes sync.Pool drop items, hence the
// build tag.)
func TestSilentReadAllocatesNothing(t *testing.T) {
	conn := NewSessionConn(NewSession(defaultSpec("HTTP")))
	if got := testing.AllocsPerRun(100, func() {
		if _, err := readSome(conn); err != ErrTimeout {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	}); got != 0 {
		t.Fatalf("silent read: %.1f allocs, want 0", got)
	}
}
