package protocols

import (
	"bytes"
	"sync"
	"testing"
)

// TestFirstProbeConcurrent: maps built concurrently in a fresh process ask
// for first probes at once, so FirstProbe must be safe to call from several
// goroutines, and every caller gets its own copy of the same bytes.
func TestFirstProbeConcurrent(t *testing.T) {
	const callers = 4
	got := make([][][]byte, callers)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range All() {
				got[c] = append(got[c], FirstProbe(p.Name))
			}
		}()
	}
	wg.Wait()
	clientFirst := 0
	for i, p := range All() {
		if got[0][i] != nil {
			clientFirst++
		}
		for c := 1; c < callers; c++ {
			if !bytes.Equal(got[c][i], got[0][i]) {
				t.Fatalf("%s: caller %d got %x, caller 0 %x", p.Name, c, got[c][i], got[0][i])
			}
			if len(got[c][i]) > 0 && &got[c][i][0] == &got[0][i][0] {
				t.Fatalf("%s: two callers share one probe buffer", p.Name)
			}
		}
	}
	if clientFirst == 0 || FirstProbe("NO-SUCH-PROTOCOL") != nil {
		t.Fatalf("%d client-first protocols; unknown name gives %x", clientFirst, FirstProbe("NO-SUCH-PROTOCOL"))
	}
}
