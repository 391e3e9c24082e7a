package core

import (
	"encoding/json"
	"testing"
	"time"

	"censysmap/internal/discovery"
)

// TestLedgerConservationAcrossPipeline runs the assembled pipeline
// (prediction on, seed scan included) and holds the ledger to what the
// per-probe ledger recorded for this run at the commit before accounting
// went per batch, and to the counters core keeps on its own for the two
// classes it spends. (The discovery classes' side of the sum is
// TestEngineLedgerCountsEveryTarget in internal/discovery.)
func TestLedgerConservationAcrossPipeline(t *testing.T) {
	net, _ := testUniverse(t)
	m := testMap(t, net)
	m.Run(30 * time.Hour)

	const want = `{"classes":[{"class":"background65k","spent":244020,"confirmed":1},` +
		`{"class":"cloud","spent":22740,"confirmed":14},{"class":"predict","spent":986,"confirmed":1},` +
		`{"class":"priority","spent":32640,"confirmed":30},{"class":"seed","spent":524280,"confirmed":2}]}`
	blob, err := json.Marshal(m.Ledger().State())
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != want {
		t.Fatalf("ledger state\n got %s\nwant %s", blob, want)
	}

	l := m.Ledger()
	predict, seed := l.ClassTotals(discovery.ClassPredict), l.ClassTotals(discovery.ClassSeed)
	if predict.Spent != m.Stats().PredictiveProbes || predict.Spent == 0 {
		t.Fatalf("predict class spent %d, pipeline counted %d predictive probes", predict.Spent, m.Stats().PredictiveProbes)
	}
	if seed.Spent == 0 || seed.Spent%65535 != 0 {
		t.Fatalf("seed class spent %d, want a positive multiple of 65535", seed.Spent)
	}
	var classSum uint64
	for _, ct := range l.Totals() {
		classSum += ct.Spent
	}
	if classSum != l.TotalSpent() {
		t.Fatalf("class totals sum to %d, TotalSpent says %d", classSum, l.TotalSpent())
	}
}
