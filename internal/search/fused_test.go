package search

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestFusedAndDifferential holds the fused AND/AND-NOT evaluator equal to the
// naive reference evaluator (differential_test.go) over hand-picked
// conjunction shapes and generated query trees, across partition counts. The
// cache is off so every run actually evaluates.
func TestFusedAndDifferential(t *testing.T) {
	shapes := []string{
		`services.protocol: HTTP`,
		`services.protocol: HTTP and location.country: US`,
		`services.protocol: HTTP and location.country: US and services.tls: true`,
		`services.protocol: HTTP and services.protocol: HTTP`,
		`location.country: US and not services.protocol: HTTP`,
		`not services.protocol: HTTP and not services.protocol: SSH`,
		`not services.protocol: HTTP`,
		`services.port: [1 TO 4000] and services.protocol: SSH and not services.tls: true`,
		`nosuchfield: x and services.protocol: HTTP`,
		`services.protocol: HTTP and nosuchfield: x`,
		`(services.protocol: HTTP or services.protocol: SSH) and location.country: US`,
		`services.protocol: HTTP and (not location.country: US) and services.port: [0 TO 65535]`,
		`a and b and c and d and e and f and g and h and i and j`, // >8 conjuncts: spills the stack buffers
	}
	for _, cfg := range []struct{ seed, docs, parts int }{
		{11, 60, 1}, {12, 250, 4}, {13, 400, 8},
	} {
		t.Run(fmt.Sprintf("seed%d_docs%d_parts%d", cfg.seed, cfg.docs, cfg.parts), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(cfg.seed)))
			ix := NewPartitioned(cfg.parts)
			docs := make([]*refDoc, 0, cfg.docs)
			for i := 0; i < cfg.docs; i++ {
				h := genHost(rng, i)
				ix.Upsert(h)
				docs = append(docs, refDocFrom(h))
			}
			ix.SetQueryCache(false)
			for _, qs := range shapes {
				checkQuery(t, ix, docs, qs)
			}
			for i := 0; i < 200; i++ {
				checkQuery(t, ix, docs, genQuery(rng, 3))
			}
		})
	}
}
