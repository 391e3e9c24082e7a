// Adaptive scanning: how Phase 1 degrades gracefully when networks fight
// back. Networks running scan detection (simnet.AdversaryConfig) block
// scanners with escalating durations; an engine that keeps hammering a
// blocking /24 wastes its probe budget and extends its own blocks. The
// BackoffPolicy gives the engine the counterpart behavior: track per-/24
// consecutive-drop streaks, back off exponentially from networks that look
// like they are blocking us, and rotate the scanner identity once enough
// networks have turned hostile (source-pool rotation, paper §4.1/§4.5).
//
// Everything here runs on the serial discovery path, so the schedule —
// which probes are deferred, when rotation happens — is a pure function of
// the seed and configuration, independent of worker/shard layout. All state
// is serialized in State and survives kill/resume bit-identically.

package discovery

import (
	"net/netip"
	"sort"
	"strconv"

	"censysmap/internal/draw"
)

// BackoffPolicy configures adaptive backoff and scanner rotation. The zero
// value disables the feature entirely (legacy behavior, zero extra state).
type BackoffPolicy struct {
	// StreakThreshold is how many consecutive dropped TCP probes into one
	// /24 look like blocking. 0 disables the policy.
	StreakThreshold int
	// RotateAfter rotates the scanner identity after every RotateAfter
	// backoff events (fresh blocking counters at detectors, modeling a new
	// source pool), at most maxRotations times. 0 disables rotation.
	RotateAfter int
}

// A /24's first backoff lasts baseBackoffTicks; each repeat offense doubles
// it, up to maxBackoffTicks.
const (
	baseBackoffTicks = 4
	maxBackoffTicks  = 512
	maxRotations     = 8
)

// Enabled reports whether adaptive backoff is configured.
func (p BackoffPolicy) Enabled() bool { return p.StreakThreshold > 0 }

// netBackoff is the per-/24 adaptive state.
type netBackoff struct {
	streak   int    // consecutive dropped probes to known-responsive addresses
	until    uint64 // tick number the backoff lasts through (exclusive)
	offenses int    // how many times this network triggered a backoff
}

// buildScanners sets the identity each PoP probes as: the configured
// scanner, from the PoP's country, under the configured ID plus a rotation
// suffix once identities have been rotated.
func (e *Engine) buildScanners() {
	id := e.cfg.Scanner.ID
	if e.rotations > 0 {
		id += "+r" + strconv.Itoa(e.rotations)
	}
	e.scanners = e.scanners[:0]
	for _, pop := range e.cfg.PoPs {
		sc := e.cfg.Scanner
		sc.ID, sc.Country = id, pop.Country
		e.scanners = append(e.scanners, sc)
	}
}

// deferred reports whether probes into addr's /24 are currently backed off.
func (e *Engine) deferred(addr netip.Addr) bool {
	if !e.cfg.Backoff.Enabled() || len(e.backoff) == 0 {
		return false
	}
	nb := e.backoff[draw.Net24(addr)]
	return nb != nil && nb.until > e.tickNo
}

// noteOutcome feeds the per-/24 streak tracker with a TCP probe outcome.
// Only drops on addresses that have answered before (Open or Closed) extend
// a streak: known-live hosts suddenly going dark en masse is how blocking
// looks from outside, while silence from never-responsive space is just the
// mostly-empty Internet — counting it would back discovery off of every
// sparse /24. Any answer from the /24 proves the path works and resets the
// streak. (UDP silence is ambiguous and never counted.)
func (e *Engine) noteOutcome(addr netip.Addr, dropped bool) {
	if !e.cfg.Backoff.Enabled() {
		return
	}
	key := draw.Net24(addr)
	nb := e.backoff[key]
	if !dropped {
		if e.answered == nil {
			e.answered = make(map[netip.Addr]bool)
		}
		e.answered[addr] = true
		if nb != nil {
			nb.streak = 0
		}
		return
	}
	if !e.answered[addr] {
		return
	}
	if nb == nil {
		nb = &netBackoff{}
		if e.backoff == nil {
			e.backoff = make(map[netip.Addr]*netBackoff)
		}
		e.backoff[key] = nb
	}
	nb.streak++
	if nb.streak < e.cfg.Backoff.StreakThreshold {
		return
	}
	// The network looks like it is blocking us: back off exponentially.
	nb.streak = 0
	nb.offenses++
	dur := uint64(baseBackoffTicks)
	for i := 1; i < nb.offenses; i++ {
		dur *= 2
		if dur >= maxBackoffTicks {
			dur = maxBackoffTicks
			break
		}
	}
	nb.until = e.tickNo + dur
	e.stats.Backoffs++
	e.offensesTotal++
	// Enough networks hostile to this identity? Rotate to a fresh one.
	if ra := e.cfg.Backoff.RotateAfter; ra > 0 &&
		e.rotations < maxRotations &&
		e.offensesTotal >= uint64(ra)*uint64(e.rotations+1) {
		e.rotations++
		e.stats.Rotations++
		e.buildScanners()
	}
}

// ActiveBackoffs counts networks currently backed off (telemetry gauge).
func (e *Engine) ActiveBackoffs() int {
	n := 0
	for _, nb := range e.backoff {
		if nb.until > e.tickNo {
			n++
		}
	}
	return n
}

// NetBackoffState is one /24's serialized adaptive state.
type NetBackoffState struct {
	Net      netip.Addr `json:"net"`
	Streak   int        `json:"streak,omitempty"`
	Until    uint64     `json:"until,omitempty"`
	Offenses int        `json:"offenses,omitempty"`
}

// backoffState serializes the adaptive maps in canonical (address) order.
func (e *Engine) backoffState() []NetBackoffState {
	if len(e.backoff) == 0 {
		return nil
	}
	out := make([]NetBackoffState, 0, len(e.backoff))
	for net, nb := range e.backoff {
		out = append(out, NetBackoffState{Net: net, Streak: nb.streak, Until: nb.until, Offenses: nb.offenses})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Net.Less(out[j].Net) })
	return out
}

func (e *Engine) restoreBackoff(states []NetBackoffState) {
	if len(states) == 0 {
		e.backoff = nil
		return
	}
	e.backoff = make(map[netip.Addr]*netBackoff, len(states))
	for _, st := range states {
		e.backoff[st.Net] = &netBackoff{streak: st.Streak, until: st.Until, offenses: st.Offenses}
	}
}

// answeredState serializes the known-responsive address set in canonical
// order.
func (e *Engine) answeredState() []netip.Addr {
	if len(e.answered) == 0 {
		return nil
	}
	out := make([]netip.Addr, 0, len(e.answered))
	for a := range e.answered {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func (e *Engine) restoreAnswered(addrs []netip.Addr) {
	if len(addrs) == 0 {
		e.answered = nil
		return
	}
	e.answered = make(map[netip.Addr]bool, len(addrs))
	for _, a := range addrs {
		e.answered[a] = true
	}
}
