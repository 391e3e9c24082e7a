package simnet

import (
	"censysmap/internal/draw"
	"censysmap/internal/protocols"
)

// catalog entries give services realistic vendor/product/version identities,
// which is what the enrichment fingerprints and CVE matching chew on.
type catalogEntry struct {
	vendor, product, version string
	title                    string
	extra                    map[string]string
	weight                   float64
}

var catalogs = map[string][]catalogEntry{
	"HTTP": {
		{vendor: "F5", product: "nginx", version: "1.24.0", title: "Welcome to nginx!", weight: 22},
		{vendor: "F5", product: "nginx", version: "1.18.0", title: "Welcome to nginx!", weight: 10},
		{vendor: "Apache", product: "Apache httpd", version: "2.4.57", title: "Apache2 Default Page", weight: 18},
		{vendor: "Apache", product: "Apache httpd", version: "2.4.49", title: "Apache2 Default Page", weight: 4}, // CVE-2021-41773
		{vendor: "Microsoft", product: "Microsoft-IIS", version: "10.0", title: "IIS Windows Server", weight: 9},
		{vendor: "Eclipse", product: "Jetty", version: "9.4.51", title: "Error 404 - Not Found", weight: 4},
		{vendor: "Zyxel", product: "ZyWALL", version: "5.37", title: "WAC6552D-S", weight: 2},
		{vendor: "MikroTik", product: "RouterOS", version: "6.49.10", title: "RouterOS router configuration page", weight: 5},
		{vendor: "Progress", product: "MOVEit Transfer", version: "2023.0.1", title: "MOVEit Transfer", weight: 1.2}, // CVE-2023-34362 family
		{vendor: "Fortinet", product: "FortiGate", version: "7.2.4", title: "FortiGate", extra: map[string]string{"auth_realm": "FortiGate"}, weight: 2.5},
		{vendor: "Grafana", product: "Grafana", version: "10.1.0", title: "Grafana", weight: 2.5},
		{vendor: "Prometheus", product: "Prometheus", version: "2.47.0", title: "Prometheus Time Series Collection and Processing Server", weight: 2.5},
		{vendor: "Hikvision", product: "DS-2CD2042", version: "5.5.0", title: "Network Camera", extra: map[string]string{"auth_realm": "Hikvision"}, weight: 3},
	},
	"SSH": {
		{vendor: "OpenBSD", product: "OpenSSH", version: "9.3", weight: 40},
		{vendor: "OpenBSD", product: "OpenSSH", version: "8.9p1", weight: 25},
		{vendor: "OpenBSD", product: "OpenSSH", version: "7.4", weight: 10}, // old, CVE-rich
		{vendor: "Dropbear", product: "dropbear", version: "2022.83", weight: 12},
	},
	"SMTP": {
		{vendor: "Postfix", product: "Postfix", version: "3.8.1", weight: 30},
		{vendor: "Exim", product: "Exim", version: "4.96", weight: 12},
		{vendor: "Microsoft", product: "Exchange Server", version: "15.2", weight: 8},
	},
	"FTP": {
		{vendor: "vsFTPd", product: "vsFTPd", version: "3.0.5", weight: 25},
		{vendor: "ProFTPD", product: "ProFTPD", version: "1.3.8", weight: 12},
		{vendor: "FileZilla", product: "FileZilla Server", version: "1.7.0", weight: 8},
	},
	"TELNET": {
		{vendor: "Busybox", product: "BusyBox telnetd", version: "1.36", extra: map[string]string{"login_banner": "BusyBox v1.36 login:"}, weight: 20},
		{vendor: "Cisco", product: "IOS telnet", version: "15.2", extra: map[string]string{"login_banner": "User Access Verification"}, weight: 8},
	},
	"MYSQL": {
		{vendor: "Oracle", product: "MySQL", version: "8.0.36", weight: 20},
		{vendor: "Oracle", product: "MySQL", version: "5.7.44", weight: 10},
		{vendor: "MariaDB", product: "MariaDB", version: "10.11.6-MariaDB", weight: 12},
	},
	"REDIS": {
		{vendor: "Redis", product: "Redis", version: "7.2.4", weight: 14},
		{vendor: "Redis", product: "Redis", version: "6.2.6", extra: map[string]string{"auth": "required"}, weight: 8},
	},
	"VNC":  {{vendor: "RealVNC", product: "VNC Server", version: "003.008", weight: 10}},
	"RDP":  {{vendor: "Microsoft", product: "Remote Desktop", version: "10.0", weight: 10}},
	"MQTT": {{vendor: "Eclipse", product: "Mosquitto", version: "2.0.18", weight: 10}},
	"SIP": {
		{vendor: "Digium", product: "Asterisk PBX", version: "18.20.0", weight: 12},
		{vendor: "Cisco", product: "SIP Gateway", version: "12.1", weight: 5},
	},
	"DNS": {
		{vendor: "ISC", product: "BIND", version: "9.18.24", weight: 20},
		{vendor: "Thekelleys", product: "dnsmasq", version: "2.90", weight: 14},
		{vendor: "NLnet Labs", product: "unbound", version: "1.19.1", weight: 8},
	},
	"NTP": {{vendor: "NTP Project", product: "ntpd", version: "4.2.8p15", extra: map[string]string{"stratum": "2"}, weight: 10}},
	"SNMP": {
		{vendor: "Net-SNMP", product: "net-snmp", version: "5.9.3", extra: map[string]string{"sysdescr": "Linux net-snmp 5.9.3"}, weight: 10},
		{vendor: "Cisco", product: "IOS", version: "15.2", extra: map[string]string{"sysdescr": "Cisco IOS Software 15.2"}, weight: 8},
	},
	"MODBUS": {
		{vendor: "Schneider Electric", product: "BMX P34 2020", version: "v2.9", weight: 10},
		{vendor: "Siemens", product: "SENTRON PAC3200", version: "v2.4", weight: 6},
		{vendor: "WAGO", product: "750-881", version: "01.09.18", weight: 4},
	},
	"S7": {
		{vendor: "Siemens", product: "6ES7 315-2EH14-0AB0", version: "3.2.6", weight: 8},
		{vendor: "Siemens", product: "6ES7 512-1DK01-0AB0", version: "2.9.4", weight: 5},
	},
	"BACNET": {
		{vendor: "Johnson Controls", product: "NAE5510", title: "HVAC-NAE5510-1", weight: 6},
		{vendor: "Honeywell", product: "WEB-8000", title: "Honeywell WEB-8000", weight: 4},
	},
	"DNP3": {{vendor: "SEL", product: "SEL-3530 RTAC", version: "R143", extra: map[string]string{"outstation": "10"}, weight: 5}},
	"FOX": {
		{vendor: "Tridium", product: "Niagara Workbench", version: "4.10.0", title: "station_Alpha", weight: 6},
		{vendor: "Tridium", product: "Niagara AX", version: "3.8.38", title: "waterPlant", weight: 3},
	},
	"EIP": {
		{vendor: "Rockwell", product: "1756-EN2T/B", version: "10.10", extra: map[string]string{"vendor_id": "1"}, weight: 5},
		{vendor: "Omron", product: "NJ501-1300", version: "1.49", extra: map[string]string{"vendor_id": "47"}, weight: 3},
	},
	"ATG":     {{vendor: "Veeder-Root", product: "TLS-350", title: "FUEL DEPOT 12", weight: 5}},
	"CODESYS": {{vendor: "3S", product: "3S-Smart Software Solutions", version: "2.4.7.0", extra: map[string]string{"os": "Nucleus PLUS"}, weight: 5}},
	"FINS":    {{vendor: "Omron", product: "CJ2M-CPU33", version: "2.0", weight: 5}},
	"GE_SRTP": {{vendor: "GE", product: "IC695CPE305", version: "9.40", weight: 4}},
	"REDLION": {
		{vendor: "Red Lion Controls", product: "G306A", version: "3.1", weight: 4},
		{vendor: "Red Lion Controls", product: "DA10D", version: "3.2", weight: 2},
	},
	"PCWORX":   {{vendor: "Phoenix Contact", product: "ILC 350 PN", version: "4.42", weight: 4}},
	"PROCONOS": {{vendor: "Phoenix Contact", product: "ProConOS eCLR", version: "5.1.0", weight: 3}},
	"HART":     {{vendor: "HIMA", product: "HIMax", version: "1.0", weight: 2}},
	"WDBRPC":   {{vendor: "Wind River", product: "mv5100", version: "6.9", weight: 3}},
	"IEC104":   {{vendor: "ABB", product: "RTU560", version: "12.7", weight: 5}},
}

// pickCatalog draws a product identity for the protocol.
func pickCatalog(proto string, r uint64) protocols.Spec {
	entries := catalogs[proto]
	if len(entries) == 0 {
		return protocols.Spec{Protocol: proto}
	}
	total := 0.0
	for _, e := range entries {
		total += e.weight
	}
	x := draw.Frac(draw.Mix(r, 0xCA7)) * total
	var chosen catalogEntry
	for _, e := range entries {
		if x < e.weight {
			chosen = e
			break
		}
		x -= e.weight
	}
	if chosen.product == "" {
		chosen = entries[0]
	}
	return protocols.Spec{
		Protocol: proto,
		Vendor:   chosen.vendor,
		Product:  chosen.product,
		Version:  chosen.version,
		Title:    chosen.title,
		Extra:    chosen.extra,
	}
}
