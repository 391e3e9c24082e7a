// Package chaos is a deterministic fault injector and crash-recovery harness
// for the scanning pipeline. It wraps the simulated Internet's transport with
// seeded fault draws — uniform loss, correlated loss bursts, transient outage
// storms, rate-limiter style blocking windows, and interrogation timeouts —
// and drives tick-stepped runs that can be killed at arbitrary ticks and
// resumed from the journal plus a checkpoint.
//
// Every draw is a pure function of (chaos seed, scanner ID, address or its
// /24, and either the per-path packet sequence number or a wall-clock window
// index). None depend on goroutine interleaving, shard count, or worker
// count, so a chaos seed names one exact fault schedule: replaying the same
// seed reproduces the same drops packet-for-packet under any pipeline
// layout. That is what makes failures found under chaos reproducible from
// the seed alone.
package chaos

import (
	"net/netip"
	"time"

	"censysmap/internal/draw"
	"censysmap/internal/simnet"
)

// Config sets the fault mix. All rates are probabilities in [0, 1]; a
// zero-value Config injects nothing.
type Config struct {
	// Seed names the fault schedule. Same seed, same faults — always.
	Seed uint64
	// Loss is extra uniform per-packet loss, on top of the simnet's own
	// base loss model.
	Loss float64
	// BurstRate is the probability that a given (scanner, address,
	// six-hour window) is inside a correlated loss burst; while inside
	// one, each packet drops with probability BurstLoss.
	BurstRate float64
	// BurstLoss is the per-packet drop probability inside a burst.
	BurstLoss float64
	// StormRate is the probability that a given (/24, hour) suffers a
	// transient outage storm dropping all traffic to the network.
	StormRate float64
	// BlockRate is the probability that a given (scanner, /24, day)
	// decides to block the scanner for the whole day — the rate-triggered
	// blocking failure mode as a seeded draw, independent of how much the
	// scanner actually sends.
	BlockRate float64
	// TimeoutRate drops interrogation connections only (discovery probes
	// pass), modelling handshake timeouts after a successful SYN scan.
	TimeoutRate float64
}

// Mild returns a light fault mix (~5% effective loss) for the given seed.
func Mild(seed uint64) Config {
	return Config{Seed: seed, Loss: 0.03, BurstRate: 0.05, BurstLoss: 0.5, TimeoutRate: 0.02}
}

// Severe returns a heavy fault mix (~20% effective loss plus storms and
// blocking) for the given seed.
func Severe(seed uint64) Config {
	return Config{Seed: seed, Loss: 0.12, BurstRate: 0.15, BurstLoss: 0.7,
		StormRate: 0.03, BlockRate: 0.02, TimeoutRate: 0.08}
}

// Draw domain tags: each fault kind hashes in its own constant so the draws
// are independent streams of the same seed.
const (
	tagLoss = iota + 0xC4A0
	tagBurstGate
	tagBurstPkt
	tagStorm
	tagBlock
	tagTimeout
)

// Drop makes a Config a simnet.FaultInjector: install it with
// Internet.SetFaultInjector. It is stateless and safe for concurrent use —
// the path model counts what it drops, under the simnet.CauseFault* causes.
// Widest-scope faults are consulted first so each drop is attributed to the
// dominant cause.
func (c Config) Drop(sc simnet.Scanner, addr netip.Addr, op simnet.Op, seq uint64, now time.Time) simnet.Cause {
	scID := draw.StrHash(sc.ID)
	a := uint64(draw.AddrU32(addr))
	n24 := a &^ 0xFF
	unix := uint64(now.Unix())

	if c.BlockRate > 0 {
		day := unix / 86400
		if draw.Frac(draw.Mix(c.Seed, tagBlock, n24, scID, day)) < c.BlockRate {
			return simnet.CauseFaultBlock
		}
	}
	if c.StormRate > 0 {
		hour := unix / 3600
		if draw.Frac(draw.Mix(c.Seed, tagStorm, n24, hour)) < c.StormRate {
			return simnet.CauseFaultStorm
		}
	}
	if c.BurstRate > 0 && c.BurstLoss > 0 {
		win := unix / (6 * 3600)
		if draw.Frac(draw.Mix(c.Seed, tagBurstGate, a, scID, win)) < c.BurstRate &&
			draw.Frac(draw.Mix(c.Seed, tagBurstPkt, a, seq)) < c.BurstLoss {
			return simnet.CauseFaultBurst
		}
	}
	if c.TimeoutRate > 0 && op == simnet.OpConnect {
		if draw.Frac(draw.Mix(c.Seed, tagTimeout, a, scID, seq)) < c.TimeoutRate {
			return simnet.CauseFaultTimeout
		}
	}
	if c.Loss > 0 {
		if draw.Frac(draw.Mix(c.Seed, tagLoss, a, scID, seq)) < c.Loss {
			return simnet.CauseFaultLoss
		}
	}
	return simnet.Delivered
}
