// Package censysmap is a from-scratch reproduction of "Censys: A Map of
// Internet Hosts and Services" (Durumeric et al., SIGCOMM 2025): a complete
// Internet-mapping pipeline — two-phase scanning, predictive discovery,
// CQRS event-sourced storage, enrichment, and query surfaces — running
// against a deterministic synthetic Internet.
//
// The public API is a thin facade over the pipeline:
//
//	sys, _ := censysmap.NewSystem(censysmap.Options{})
//	sys.Run(48 * time.Hour)                         // simulated time
//	hosts, _ := sys.Search(`services.service_name="MODBUS" and location.country="US"`)
//	host, _ := sys.Host(netip.MustParseAddr("10.0.1.7"))
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
// reproduction results.
package censysmap

import (
	"fmt"
	"net/http"
	"net/netip"
	"time"

	"censysmap/internal/core"
	"censysmap/internal/entity"
	"censysmap/internal/journal"
	"censysmap/internal/serve"
	"censysmap/internal/simclock"
	"censysmap/internal/simnet"
	"censysmap/internal/telemetry"
)

// Re-exported entity types: these are the records queries return.
type (
	// Host is an IP-addressed host record.
	Host = entity.Host
	// Service is one service on a host.
	Service = entity.Service
	// ServiceKey addresses a service slot ("80/tcp").
	ServiceKey = entity.ServiceKey
	// WebProperty is a name-addressed HTTP(S) entity.
	WebProperty = entity.WebProperty
	// Software is a derived CPE-style software/hardware label.
	Software = entity.Software
)

// Options configures a System. The zero value gives a /18 universe with the
// paper's production parameters.
type Options struct {
	// Universe is the IPv4 prefix standing in for the Internet.
	Universe netip.Prefix
	// Seed drives all synthetic generation (default 1).
	Seed uint64
	// HostDensity is the live-host fraction (default 0.10).
	HostDensity float64
	// Pipeline is the scanning/storage configuration, used as given: start
	// from core.DefaultConfig() and change what differs. Nil means
	// core.DefaultConfig() with the universe's CloudBlocks.
	Pipeline *core.Config
	// Network overrides the synthetic Internet's full configuration; when
	// set, Universe/Seed/HostDensity are ignored.
	Network *simnet.Config
	// Scenario describes the hostile network in simnet.ParseScenario's
	// syntax: a preset name ("honeyfarm", "tarpit", "detector", "churn",
	// "full", "mild", "severe"), key=value pairs
	// ("honeypot_farms=2,tarpit_rate=0.1,fault_loss=0.05"), or a preset
	// followed by pairs ("severe,seed=7"). It replaces Network's Adversary.
	// On a hostile substrate (simnet.AdversaryConfig.Enabled) the
	// pipeline's countermeasures (interrogation deadline budgets, adaptive
	// scan backoff, honeypot uniformity detection) default on unless
	// Pipeline sets them explicitly (core.Config.ArmCountermeasures).
	Scenario string
	// DisableTelemetry leaves the pipeline uninstrumented. By default a
	// System carries a telemetry registry and serves GET /v2/metrics.
	DisableTelemetry bool
}

// System is a running Internet map: a synthetic Internet plus the complete
// pipeline scanning it on a simulated clock.
type System struct {
	net   *simnet.Internet
	clock *simclock.Sim
	m     *core.Map
}

// NewSystem builds a System. The pipeline is started; call Run (or Advance
// the Clock) to make simulated time pass.
func NewSystem(opts Options) (*System, error) {
	ncfg := simnet.DefaultConfig()
	if opts.Network != nil {
		ncfg = *opts.Network
	} else {
		if opts.Universe.IsValid() {
			ncfg.Prefix = opts.Universe
		} else {
			ncfg.Prefix = netip.MustParsePrefix("10.0.0.0/18")
		}
		if opts.Seed != 0 {
			ncfg.Seed = opts.Seed
		}
		if opts.HostDensity > 0 {
			ncfg.HostDensity = opts.HostDensity
		}
	}
	if opts.Scenario != "" {
		adv, err := simnet.ParseScenario(opts.Scenario)
		if err != nil {
			return nil, fmt.Errorf("censysmap: %w", err)
		}
		ncfg.Adversary = adv
	}
	clk := simclock.New()
	net := simnet.New(ncfg, clk)

	var pcfg core.Config
	if opts.Pipeline != nil {
		pcfg = *opts.Pipeline
	} else {
		pcfg = core.DefaultConfig()
		pcfg.CloudBlocks = ncfg.CloudBlocks
	}
	if pcfg.Telemetry == nil && !opts.DisableTelemetry {
		pcfg.Telemetry = telemetry.New()
	}
	if ncfg.Adversary.Enabled() {
		// A hostile substrate without countermeasures wedges the worker pool
		// on the first tarpit: default the defenses unless the caller chose
		// their own (see DESIGN.md, "Adversarial scenarios").
		pcfg.ArmCountermeasures()
	}
	m, err := core.New(pcfg, net)
	if err != nil {
		return nil, fmt.Errorf("censysmap: %w", err)
	}
	m.Start()
	return &System{net: net, clock: clk, m: m}, nil
}

// Run advances simulated time by d while the pipeline scans continuously.
func (s *System) Run(d time.Duration) { s.clock.Advance(d) }

// Now returns the current simulated time.
func (s *System) Now() time.Time { return s.clock.Now() }

// Clock exposes the simulated clock for custom scheduling.
func (s *System) Clock() *simclock.Sim { return s.clock }

// Internet exposes the synthetic Internet (ground truth, fault injection).
func (s *System) Internet() *simnet.Internet { return s.net }

// Map exposes the underlying pipeline for advanced use.
func (s *System) Map() *core.Map { return s.m }

// Search runs a Lucene-like query over the current state of all hosts:
//
//	services.port: [8000 TO 9000] and not services.tls: true
//	labels: ics and location.country: US
//	"MOVEit Transfer"
func (s *System) Search(query string) ([]*Host, error) { return s.m.Search(query) }

// Count returns the number of hosts matching a query.
func (s *System) Count(query string) (int, error) { return s.m.Count(query) }

// Host returns the current, enriched record for an address.
func (s *System) Host(addr netip.Addr) (*Host, bool) { return s.m.HostCurrent(addr) }

// HostAt reconstructs a host as it looked at a past instant (snapshot +
// journal replay).
func (s *System) HostAt(addr netip.Addr, at time.Time) (*Host, bool) { return s.m.Host(addr, at) }

// History returns the journaled change events for an address.
func (s *System) History(addr netip.Addr) []journal.Event { return s.m.History(addr) }

// CertHosts returns "ip port/transport" locators of the active services
// presenting the certificate with the given SHA-256 fingerprint — the
// threat-hunting pivot. A service pending removal is not located.
func (s *System) CertHosts(fingerprint string) []string { return s.m.CertHosts(fingerprint) }

// WebProperties returns all current name-addressed web properties.
func (s *System) WebProperties() []*WebProperty { return s.m.WebProperties().All() }

// APIHandler returns the REST lookup API (GET /v2/hosts/{ip},
// /v2/hosts/{ip}/history, /v2/certificates/{fp}/hosts).
func (s *System) APIHandler() http.Handler { return s.m.Lookup() }

// Frontend wraps the lookup API in the serving tier: per-tenant API keys
// with rate limits and quotas, priority-aware load shedding, snapshot-pinned
// bulk export, and conditional GETs. Mount it at /v2/ in place of
// APIHandler for authenticated heavy-traffic deployments.
func (s *System) Frontend(cfg serve.Config) (*serve.Server, error) { return s.m.Frontend(cfg) }

// Services exports the current dataset as flat records.
func (s *System) Services() []core.ServiceRecord { return s.m.CurrentServices(false) }

// Metrics returns the system's telemetry registry (nil when telemetry is
// disabled).
func (s *System) Metrics() *telemetry.Registry { return s.m.Metrics() }

// MetricsSnapshot collects the current values of every registered metric
// family, stamped with the simulated clock. The same snapshot backs both
// expositions of GET /v2/metrics.
func (s *System) MetricsSnapshot() telemetry.Snapshot { return s.m.MetricsSnapshot() }

// Traces returns the sampled per-address pipeline trace spans.
func (s *System) Traces() []telemetry.Span { return s.m.Traces() }
