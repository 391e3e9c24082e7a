package protocols

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"censysmap/internal/entity"
)

// This file implements the remaining ICS protocols of the paper's Table 4:
// GE SRTP, Red Lion Crimson, Phoenix Contact PC Worx, ProConOS, HART-IP,
// and VxWorks WDBRPC.

func init() {
	register(&Protocol{
		Name:         "GE_SRTP",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{18245, 18246},
		ICS:          true,
		Scan:         ScanGESRTP,
		NewSession:   func(s Spec) Session { return &srtpSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return bytes.HasPrefix(data, []byte("SRTP"))
		},
	})
	register(&Protocol{
		Name:         "REDLION",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{789},
		ICS:          true,
		Scan:         ScanRedLion,
		NewSession:   func(s Spec) Session { return &redlionSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return bytes.HasPrefix(data, []byte("CR3 "))
		},
	})
	register(&Protocol{
		Name:         "PCWORX",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{1962},
		ICS:          true,
		Scan:         ScanPCWorx,
		NewSession:   func(s Spec) Session { return &pcworxSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return bytes.HasPrefix(data, []byte("PCWX"))
		},
	})
	register(&Protocol{
		Name:         "PROCONOS",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{20547},
		ICS:          true,
		Scan:         ScanProConOS,
		NewSession:   func(s Spec) Session { return &proconosSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return bytes.HasPrefix(data, []byte("PCOS|"))
		},
	})
	register(&Protocol{
		Name:         "HART",
		Transport:    entity.UDP,
		DefaultPorts: []uint16{5094},
		ICS:          true,
		Scan:         ScanHART,
		NewSession:   func(s Spec) Session { return &hartSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			// HART-IP: version 1, message type 1 (response).
			return len(data) >= 8 && data[0] == 0x01 && data[1] == 0x01
		},
	})
	register(&Protocol{
		Name:         "WDBRPC",
		Transport:    entity.UDP,
		DefaultPorts: []uint16{17185},
		ICS:          true,
		Scan:         ScanWDBRPC,
		NewSession:   func(s Spec) Session { return &wdbrpcSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return bytes.HasPrefix(data, []byte("WDB\x01"))
		},
	})
}

// ---- GE SRTP ----

// srtpRequest asks the PLC for its identity (simplified SRTP exchange).
var srtpRequest = []byte("SRTP\x00\x01ID?")

// ScanGESRTP requests the PLC type from a GE SRTP service.
func ScanGESRTP(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(srtpRequest); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	if len(data) < 6 || !bytes.HasPrefix(data, []byte("SRTP")) {
		return &Result{Protocol: "GE_SRTP"}, ErrUnexpected
	}
	plc := strings.TrimSpace(string(data[6:]))
	res := &Result{Protocol: "GE_SRTP", Complete: true, Banner: truncate("GE SRTP " + plc)}
	res.attr("ge_srtp.plc_type", plc)
	return res, nil
}

type srtpSession struct{ spec Spec }

func (s *srtpSession) Greeting() []byte { return nil }

func (s *srtpSession) Respond(req []byte) ([]byte, bool) {
	if !bytes.HasPrefix(req, []byte("SRTP")) {
		return nil, true
	}
	plc := s.spec.Product
	if plc == "" {
		plc = "IC695CPE305"
	}
	return []byte("SRTP\x00\x81" + plc), false
}

// ---- Red Lion Crimson v3 ----

// redlionRequest asks a Crimson runtime for its model.
var redlionRequest = []byte{0x0D, 0x0A, 0x0D, 0x0A}

// ScanRedLion reads the Crimson model banner.
func ScanRedLion(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(redlionRequest); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	body := string(data)
	if !strings.HasPrefix(body, "CR3 ") {
		return &Result{Protocol: "REDLION", Banner: truncate(firstLine(body))}, ErrUnexpected
	}
	res := &Result{Protocol: "REDLION", Complete: true, Banner: truncate(firstLine(body))}
	for _, f := range strings.Fields(body[4:]) {
		if v, ok := strings.CutPrefix(f, "MODEL="); ok {
			res.attr("redlion.model", v)
		}
		if v, ok := strings.CutPrefix(f, "VER="); ok {
			res.attr("redlion.version", v)
		}
	}
	return res, nil
}

type redlionSession struct{ spec Spec }

func (s *redlionSession) Greeting() []byte { return nil }

func (s *redlionSession) Respond(req []byte) ([]byte, bool) {
	if !bytes.HasPrefix(req, []byte{0x0D, 0x0A}) {
		return nil, true
	}
	model := s.spec.Product
	if model == "" {
		model = "G306A"
	}
	version := s.spec.Version
	if version == "" {
		version = "3.1"
	}
	return []byte(fmt.Sprintf("CR3 MODEL=%s VER=%s\r\n", model, version)), false
}

// ---- Phoenix Contact PC Worx ----

// pcworxRequest initiates the PC Worx session (simplified).
var pcworxRequest = []byte("PCWX\x01\x00INIT")

// ScanPCWorx reads the PLC type and firmware.
func ScanPCWorx(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(pcworxRequest); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	if len(data) < 6 || !bytes.HasPrefix(data, []byte("PCWX")) {
		return &Result{Protocol: "PCWORX"}, ErrUnexpected
	}
	fields := strings.Split(string(data[6:]), "|")
	res := &Result{Protocol: "PCWORX", Complete: true, Banner: "PC Worx"}
	if len(fields) > 0 {
		res.attr("pcworx.plc_type", fields[0])
		res.Banner = truncate("PC Worx " + fields[0])
	}
	if len(fields) > 1 {
		res.attr("pcworx.firmware", fields[1])
	}
	return res, nil
}

type pcworxSession struct{ spec Spec }

func (s *pcworxSession) Greeting() []byte { return nil }

func (s *pcworxSession) Respond(req []byte) ([]byte, bool) {
	if !bytes.HasPrefix(req, []byte("PCWX")) {
		return nil, true
	}
	plc := s.spec.Product
	if plc == "" {
		plc = "ILC 350 PN"
	}
	fw := s.spec.Version
	if fw == "" {
		fw = "4.42"
	}
	return []byte("PCWX\x01\x80" + plc + "|" + fw), false
}

// ---- ProConOS ----

// proconosRequest queries the runtime information block.
var proconosRequest = []byte("PCOS?INFO")

// ScanProConOS reads the runtime identification.
func ScanProConOS(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(proconosRequest); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	body := string(data)
	if !strings.HasPrefix(body, "PCOS|") {
		return &Result{Protocol: "PROCONOS"}, ErrUnexpected
	}
	fields := strings.Split(body[5:], "|")
	res := &Result{Protocol: "PROCONOS", Complete: true, Banner: "ProConOS runtime"}
	if len(fields) > 0 {
		res.attr("proconos.runtime", fields[0])
	}
	if len(fields) > 1 {
		res.attr("proconos.version", fields[1])
	}
	return res, nil
}

type proconosSession struct{ spec Spec }

func (s *proconosSession) Greeting() []byte { return nil }

func (s *proconosSession) Respond(req []byte) ([]byte, bool) {
	if !bytes.HasPrefix(req, []byte("PCOS?")) {
		return nil, true
	}
	rt := s.spec.Product
	if rt == "" {
		rt = "ProConOS eCLR"
	}
	version := s.spec.Version
	if version == "" {
		version = "5.1.0"
	}
	return []byte("PCOS|" + rt + "|" + version), false
}

// ---- HART-IP ----

// hartSessionInitiate is the HART-IP session-initiate request (version 1,
// type 0 request, id 0).
var hartSessionInitiate = []byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x0D, 0x01, 0x00, 0x00, 0x27, 0x10}

// ScanHART initiates a HART-IP session.
func ScanHART(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(hartSessionInitiate); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 || data[0] != 0x01 || data[1] != 0x01 {
		return &Result{Protocol: "HART"}, ErrUnexpected
	}
	res := &Result{Protocol: "HART", Complete: true, Banner: "HART-IP session"}
	res.attr("hart.version", "1")
	if len(data) > 13 {
		res.attr("hart.device", strings.TrimRight(string(data[13:]), "\x00"))
	}
	return res, nil
}

type hartSession struct{ spec Spec }

func (s *hartSession) Greeting() []byte { return nil }

func (s *hartSession) Respond(req []byte) ([]byte, bool) {
	if len(req) < 8 || req[0] != 0x01 || req[1] != 0x00 {
		return nil, false
	}
	device := s.spec.Product
	if device == "" {
		device = "HIMA HIMax"
	}
	out := []byte{0x01, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, byte(13 + len(device)), 0x01, 0x00, 0x00, 0x27, 0x10}
	return append(out, device...), false
}

// ---- VxWorks WDBRPC ----

// wdbrpcRequest is a (simplified) WDB target-connect call.
var wdbrpcRequest = []byte("WDB\x00CONNECT")

// ScanWDBRPC connects to the VxWorks debug agent and reads target info —
// the exposed-debug-agent risk the paper's Table 4 censuses.
func ScanWDBRPC(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(wdbrpcRequest); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte("WDB\x01")) {
		return &Result{Protocol: "WDBRPC"}, ErrUnexpected
	}
	fields := strings.Split(string(data[4:]), "|")
	res := &Result{Protocol: "WDBRPC", Complete: true, Banner: "VxWorks WDB agent"}
	if len(fields) > 0 {
		res.attr("wdbrpc.vxworks_version", fields[0])
	}
	if len(fields) > 1 {
		res.attr("wdbrpc.bsp", fields[1])
		res.Banner = truncate("VxWorks " + fields[0] + " on " + fields[1])
	}
	return res, nil
}

type wdbrpcSession struct{ spec Spec }

func (s *wdbrpcSession) Greeting() []byte { return nil }

func (s *wdbrpcSession) Respond(req []byte) ([]byte, bool) {
	if !bytes.HasPrefix(req, []byte("WDB\x00")) {
		return nil, false
	}
	version := s.spec.Version
	if version == "" {
		version = "6.9"
	}
	bsp := s.spec.Product
	if bsp == "" {
		bsp = "mv5100"
	}
	return []byte("WDB\x01" + version + "|" + bsp), false
}
