package censysmap

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"censysmap/internal/chaos"
	"censysmap/internal/core"
	"censysmap/internal/simnet"
)

// chaosSystem builds a small System with ambient simnet noise off under the
// mild fault scenario — the facade-level version of the internal/chaos lab
// setup.
func chaosSystem(t *testing.T, seed uint64) (*System, core.Config) {
	t.Helper()
	ncfg := simnet.DefaultConfig()
	ncfg.Prefix = netip.MustParsePrefix("10.60.0.0/24")
	ncfg.Seed = seed
	ncfg.CloudBlocks = 1
	ncfg.WebProperties = 8
	ncfg.BaseLoss = 0
	ncfg.OutageRate = 0
	ncfg.GeoblockRate = 0

	pcfg := core.DefaultConfig()
	pcfg.CloudBlocks = 1
	pcfg.SnapshotEvery = 4

	sys, err := NewSystem(Options{Network: &ncfg, Pipeline: &pcfg,
		Scenario: fmt.Sprintf("mild,seed=%d", seed)})
	if err != nil {
		t.Fatal(err)
	}
	return sys, pcfg
}

// TestSystemCrashRecoveryUnderChaos exercises the public crash-recovery
// surface end to end: Checkpoint + Durable off a running System, a JSON
// trip across the "process boundary", core.Resume, and a differential
// comparison against the System that never crashed.
func TestSystemCrashRecoveryUnderChaos(t *testing.T) {
	const ticks, crashAt = 26, 9

	base, _ := chaosSystem(t, 77)
	base.Run(ticks * time.Hour)

	sys, pcfg := chaosSystem(t, 77)
	sys.Run(crashAt * time.Hour)

	cp := sys.Map().Checkpoint()
	d := sys.Map().Durable()
	sys.Map().Stop()

	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var restored core.Checkpoint
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}

	m2, err := core.Resume(pcfg, sys.Internet(), d, restored)
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("resumed map: %v", err)
	}
	sys.Clock().Advance((ticks - crashAt) * time.Hour)
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("resumed map at the end of the run: %v", err)
	}

	want, err := chaos.Observe(base.Map())
	if err != nil {
		t.Fatal(err)
	}
	got, err := chaos.Observe(m2)
	if err != nil {
		t.Fatal(err)
	}
	if diff := chaos.Diff(want, got); len(diff) > 0 {
		t.Fatalf("resumed System diverged from uninterrupted System: %v", diff)
	}
	if len(got.Services) == 0 {
		t.Fatal("no services found; universe too quiet for the test to mean anything")
	}
}
