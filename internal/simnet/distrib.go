package simnet

import (
	"sort"

	"censysmap/internal/draw"
)

// This file holds the statistical shape of the synthetic Internet: port
// popularity, protocol mix, country weights, and per-protocol product
// catalogs. The port model follows the paper's Appendix B observation that
// port popularity decays smoothly with no inflection point, and §2.2's
// finding that most services live on non-standard ports.

// headPorts are the named "popular" ports with Zipf-like weights. Everything
// not drawn from here lands uniformly in the 1–65535 tail.
var headPorts = []struct {
	port   uint16
	weight float64
}{
	{80, 100}, {443, 92}, {22, 55}, {7547, 40}, {21, 30}, {25, 28},
	{8080, 26}, {3389, 24}, {53, 22}, {23, 20}, {5060, 16}, {587, 13},
	{3306, 12}, {8443, 11}, {123, 10}, {161, 10}, {8000, 9}, {5900, 8},
	{2222, 8}, {6379, 7}, {445, 7}, {1883, 6}, {8888, 6}, {2082, 6},
	{110, 5}, {143, 5}, {465, 5}, {993, 4}, {995, 4}, {5901, 4},
	{502, 3}, {102, 2.2}, {20000, 1.6}, {47808, 1.8}, {9600, 1.4},
	{1911, 1.5}, {44818, 1.3}, {10001, 1.4}, {2455, 1.2}, {2404, 1.2},
	{18245, 0.8}, {789, 1.0}, {1962, 0.7}, {20547, 0.5}, {5094, 0.4}, {17185, 0.7},
	{81, 4}, {82, 3}, {8081, 4}, {8089, 3}, {9000, 4}, {9090, 3},
	{10000, 3}, {49152, 3}, {60000, 2}, {500, 2},
}

// headWeight is the probability a service lands on a head port at all; the
// rest spread uniformly over the 65K tail ("the vast majority of Internet
// services live on non-standard ports").
const headWeight = 0.48

var headCum []float64
var headTotal float64

func init() {
	headCum = make([]float64, len(headPorts))
	for i, hp := range headPorts {
		headTotal += hp.weight
		headCum[i] = headTotal
	}
}

// pickPort draws a port. onDefault reports whether it came from the named
// head list (and so plausibly runs its IANA protocol).
func pickPort(r uint64) (port uint16, onDefault bool) {
	if draw.Frac(draw.Mix(r, 0xA1)) < headWeight {
		x := draw.Frac(draw.Mix(r, 0xA2)) * headTotal
		i := sort.SearchFloat64s(headCum, x)
		if i >= len(headPorts) {
			i = len(headPorts) - 1
		}
		return headPorts[i].port, true
	}
	p := uint16(draw.Mix(r, 0xA3)%65535) + 1
	return p, false
}

// protocolWeights is the L7 protocol mix for services NOT bound to their
// IANA port (service diffusion tail) — HTTP dominates everywhere.
var protocolWeights = []struct {
	name   string
	weight float64
}{
	{"HTTP", 62}, {"SSH", 9}, {"TELNET", 2.5}, {"FTP", 2.5}, {"SMTP", 2},
	{"RDP", 2}, {"MYSQL", 2}, {"VNC", 1.5}, {"REDIS", 1.6}, {"MQTT", 1.2},
	{"SIP", 1}, {"DNS", 1.6}, {"NTP", 1.2}, {"SNMP", 1.6},
	{"MODBUS", 0.5}, {"S7", 0.22}, {"BACNET", 0.35}, {"DNP3", 0.12},
	{"FOX", 0.35}, {"EIP", 0.2}, {"ATG", 0.22}, {"CODESYS", 0.12},
	{"FINS", 0.12}, {"IEC104", 0.18},
	{"GE_SRTP", 0.1}, {"REDLION", 0.15}, {"PCWORX", 0.1}, {"PROCONOS", 0.08},
	{"HART", 0.05}, {"WDBRPC", 0.12},
}

var protoCum []float64
var protoTotal float64

func init() {
	protoCum = make([]float64, len(protocolWeights))
	for i, pw := range protocolWeights {
		protoTotal += pw.weight
		protoCum[i] = protoTotal
	}
}

// ianaOwner maps head ports to the protocol that conventionally runs there.
var ianaOwner = map[uint16]string{
	80: "HTTP", 443: "HTTP", 8080: "HTTP", 8443: "HTTP", 8000: "HTTP",
	8888: "HTTP", 7547: "HTTP", 2082: "HTTP", 81: "HTTP", 82: "HTTP",
	8081: "HTTP", 8089: "HTTP", 9000: "HTTP", 9090: "HTTP", 10000: "HTTP",
	60000: "HTTP", 500: "HTTP", 49152: "HTTP",
	22: "SSH", 2222: "SSH",
	21: "FTP", 25: "SMTP", 587: "SMTP", 465: "SMTP",
	23: "TELNET", 3389: "RDP", 3306: "MYSQL", 6379: "REDIS",
	5900: "VNC", 5901: "VNC", 1883: "MQTT", 5060: "SIP",
	53: "DNS", 123: "NTP", 161: "SNMP",
	502: "MODBUS", 102: "S7", 20000: "DNP3", 47808: "BACNET",
	9600: "FINS", 1911: "FOX", 44818: "EIP", 10001: "ATG",
	2455: "CODESYS", 2404: "IEC104",
	18245: "GE_SRTP", 789: "REDLION", 1962: "PCWORX", 20547: "PROCONOS",
	5094: "HART", 17185: "WDBRPC",
	// Protocols without a dedicated scanner in this build (POP3/IMAP/SMB)
	// are approximated by web UIs, keeping the ports populated.
	110: "HTTP", 143: "HTTP", 993: "HTTP", 995: "HTTP", 445: "HTTP",
}

// pickProtocol chooses the L7 protocol for a service at the given port.
func pickProtocol(r uint64, port uint16, onDefault bool) string {
	if onDefault {
		if owner, ok := ianaOwner[port]; ok && draw.Frac(draw.Mix(r, 0xB1)) < 0.88 {
			return owner
		}
	}
	x := draw.Frac(draw.Mix(r, 0xB2)) * protoTotal
	i := sort.SearchFloat64s(protoCum, x)
	if i >= len(protocolWeights) {
		i = len(protocolWeights) - 1
	}
	return protocolWeights[i].name
}

// deployTemplate is a shared operator deployment: hosts in a patterned /24
// carry each service independently with probability p. Every template
// anchors on at least one port the priority scan covers daily (80, 7547,
// 502, 3306, 8443) and adds companion services on tail ports no fixed port
// list reaches — the cross-port structure predictive scanning exists to
// exploit (a 100-ports/IP/day background sweep needs months to stumble on
// them).
type deployTemplate struct {
	name  string
	ports []templatePort
}

type templatePort struct {
	port  uint16
	proto string
	p     float64
}

var deployTemplates = []deployTemplate{
	{"web-stack", []templatePort{
		{80, "HTTP", 0.95}, {443, "HTTP", 0.80}, {22, "SSH", 0.60},
		{8006, "HTTP", 0.55}, {30005, "HTTP", 0.50},
	}},
	{"iot-fleet", []templatePort{
		{7547, "HTTP", 0.90}, {23, "TELNET", 0.40},
		{37215, "HTTP", 0.55}, {4567, "HTTP", 0.50},
	}},
	{"ics-cell", []templatePort{
		{502, "MODBUS", 0.85}, {80, "HTTP", 0.50},
		{20034, "HTTP", 0.50}, {8087, "HTTP", 0.45},
	}},
	{"db-tier", []templatePort{
		{3306, "MYSQL", 0.80}, {22, "SSH", 0.75},
		{9201, "HTTP", 0.55}, {18083, "HTTP", 0.50},
	}},
	{"mgmt-plane", []templatePort{
		{8443, "HTTP", 0.85}, {443, "HTTP", 0.50},
		{37777, "HTTP", 0.50}, {60443, "HTTP", 0.45},
	}},
}

// countries with rough weights; the per-/24 assignment gives geographic
// network structure.
var countries = []struct {
	code   string
	weight float64
}{
	{"US", 30}, {"CN", 14}, {"DE", 8}, {"JP", 6}, {"GB", 5}, {"FR", 5},
	{"BR", 5}, {"RU", 4}, {"KR", 4}, {"IN", 4}, {"NL", 3}, {"CA", 3},
	{"IT", 3}, {"AU", 2}, {"SG", 2}, {"TW", 2},
}

var countryCum []float64
var countryTotal float64

func init() {
	countryCum = make([]float64, len(countries))
	for i, c := range countries {
		countryTotal += c.weight
		countryCum[i] = countryTotal
	}
}

func pickCountry(r uint64) string {
	x := draw.Frac(r) * countryTotal
	i := sort.SearchFloat64s(countryCum, x)
	if i >= len(countries) {
		i = len(countries) - 1
	}
	return countries[i].code
}
