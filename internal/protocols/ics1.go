package protocols

import (
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"censysmap/internal/entity"
)

// This file implements the first half of the industrial control system
// protocols: MODBUS, S7, DNP3, BACNET, FINS. ICS protocols are where
// handshake-verified labeling matters most: the paper's §6.3 shows engines
// that label by port or keyword over-report these services by orders of
// magnitude.

func init() {
	register(&Protocol{
		Name:         "MODBUS",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{502},
		ICS:          true,
		Scan:         ScanModbus,
		NewSession:   func(s Spec) Session { return &modbusSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			// MBAP: protocol identifier bytes 2..3 are zero and length sane.
			return len(data) >= 9 && data[2] == 0 && data[3] == 0 &&
				int(binary.BigEndian.Uint16(data[4:6]))+6 == len(data)
		},
	})
	register(&Protocol{
		Name:         "S7",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{102},
		ICS:          true,
		Scan:         ScanS7,
		NewSession:   func(s Spec) Session { return &s7Session{spec: s} },
		Fingerprint: func(data []byte) bool {
			// TPKT + COTP CC followed by an S7 (0x32) payload marker we
			// plant in the CC user data. RDP's CC carries 0x02 instead.
			return len(data) >= 12 && data[0] == 0x03 && data[5] == 0xD0 && data[11] == 0x32
		},
	})
	register(&Protocol{
		Name:         "DNP3",
		Transport:    entity.TCP,
		DefaultPorts: []uint16{20000},
		ICS:          true,
		Scan:         ScanDNP3,
		NewSession:   func(s Spec) Session { return &dnp3Session{spec: s} },
		Fingerprint: func(data []byte) bool {
			return len(data) >= 10 && data[0] == 0x05 && data[1] == 0x64
		},
	})
	register(&Protocol{
		Name:         "BACNET",
		Transport:    entity.UDP,
		DefaultPorts: []uint16{47808},
		ICS:          true,
		Scan:         ScanBACnet,
		NewSession:   func(s Spec) Session { return &bacnetSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return len(data) >= 4 && data[0] == 0x81
		},
	})
	register(&Protocol{
		Name:         "FINS",
		Transport:    entity.UDP,
		DefaultPorts: []uint16{9600},
		ICS:          true,
		Scan:         ScanFINS,
		NewSession:   func(s Spec) Session { return &finsSession{spec: s} },
		Fingerprint: func(data []byte) bool {
			return len(data) >= 14 && data[0] == 0xC0
		},
	})
}

// ---- MODBUS ----

// modbusDeviceIDRequest is MBAP + function 0x2B (Encapsulated Interface
// Transport), MEI type 0x0E (Read Device Identification), basic category.
var modbusDeviceIDRequest = []byte{
	0xCE, 0x01, // transaction id
	0x00, 0x00, // protocol id
	0x00, 0x05, // length
	0x01,       // unit id
	0x2B, 0x0E, // function, MEI
	0x01, 0x00, // read basic, object 0
}

// ScanModbus issues Read Device Identification and parses vendor/product/
// revision objects.
func ScanModbus(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(modbusDeviceIDRequest); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	// A real MODBUS reply echoes our transaction ID; anything else (e.g. a
	// MySQL greeting that happens to have zero bytes in the right places)
	// is rejected.
	if len(data) < 9 || data[0] != 0xCE || data[1] != 0x01 || data[2] != 0 || data[3] != 0 {
		return &Result{Protocol: "MODBUS"}, ErrUnexpected
	}
	fn := data[7]
	res := &Result{Protocol: "MODBUS", Complete: true}
	if fn == 0x2B && len(data) > 14 {
		// Objects: count at byte 13, then (id, len, bytes) triples.
		count := int(data[13])
		off := 14
		names := []string{"modbus.vendor", "modbus.product_code", "modbus.revision"}
		for i := 0; i < count && off+2 <= len(data); i++ {
			id := int(data[off])
			l := int(data[off+1])
			if off+2+l > len(data) {
				break
			}
			val := string(data[off+2 : off+2+l])
			if id < len(names) {
				res.attr(names[id], val)
			}
			off += 2 + l
		}
		res.Banner = truncate(fmt.Sprintf("MODBUS %s %s",
			res.Attributes["modbus.vendor"], res.Attributes["modbus.product_code"]))
	} else if fn&0x80 != 0 {
		// Exception response: the device speaks MODBUS but refuses the
		// function — still handshake-verified.
		res.attr("modbus.exception", fmt.Sprintf("%d", data[8]))
		res.Banner = "MODBUS exception"
	} else {
		res.Banner = "MODBUS response"
	}
	res.attr("modbus.unit_id", fmt.Sprintf("%d", data[6]))
	return res, nil
}

type modbusSession struct {
	spec Spec
}

func (s *modbusSession) Greeting() []byte { return nil }

func (s *modbusSession) Respond(req []byte) ([]byte, bool) {
	if len(req) < 8 || req[2] != 0 || req[3] != 0 {
		return nil, true // not MBAP: real devices drop the connection
	}
	fn := req[7]
	if fn != 0x2B {
		// Illegal function exception.
		payload := []byte{req[6], fn | 0x80, 0x01}
		return mbap(req[0:2], payload), false
	}
	vendor := s.spec.Vendor
	if vendor == "" {
		vendor = "Schneider Electric"
	}
	product := s.spec.Product
	if product == "" {
		product = "BMX P34 2020"
	}
	revision := s.spec.Version
	if revision == "" {
		revision = "v2.9"
	}
	payload := []byte{req[6], 0x2B, 0x0E, 0x01, 0x01, 0x00, 0x00, 0x03}
	for i, v := range []string{vendor, product, revision} {
		payload = append(payload, byte(i), byte(len(v)))
		payload = append(payload, v...)
	}
	return mbap(req[0:2], payload), false
}

// mbap frames a MODBUS payload with an MBAP header echoing the transaction.
func mbap(txid, payload []byte) []byte {
	out := append([]byte(nil), txid...)
	out = append(out, 0x00, 0x00)
	out = binary.BigEndian.AppendUint16(out, uint16(len(payload)))
	return append(out, payload...)
}

// ---- S7 ----

// s7COTPConnect is a TPKT + COTP connection request with the PG TSAP pair.
var s7COTPConnect = []byte{
	0x03, 0x00, 0x00, 0x16,
	0x11, 0xE0, 0x00, 0x00, 0x00, 0x01, 0x00,
	0xC1, 0x02, 0x01, 0x00, // src TSAP
	0xC2, 0x02, 0x01, 0x02, // dst TSAP
	0xC0, 0x01, 0x0A, // TPDU size
}

// s7ModuleIDRequest requests SZL 0x0011 (module identification).
var s7ModuleIDRequest = []byte{
	0x03, 0x00, 0x00, 0x0D,
	0x02, 0xF0, 0x80, // COTP DT
	0x32, 0x07, 0x00, 0x11, 0x00, 0x00, // S7 userdata, SZL 0x0011
}

// ScanS7 connects via COTP and reads the module identification SZL.
func ScanS7(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(s7COTPConnect); err != nil {
		return nil, err
	}
	cc, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	if len(cc) < 6 || cc[0] != 0x03 || cc[5] != 0xD0 {
		return &Result{Protocol: "S7"}, ErrUnexpected
	}
	if _, err := rw.Write(s7ModuleIDRequest); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	idx := indexOf(data, 0x32)
	if idx < 0 || len(data) < idx+6 {
		return &Result{Protocol: "S7"}, ErrUnexpected
	}
	// Our SZL answer carries "module;firmware" as a trailing string.
	body := string(data[idx+6:])
	module, firmware, _ := strings.Cut(body, ";")
	res := &Result{Protocol: "S7", Complete: true, Banner: truncate("S7 " + module)}
	res.attr("s7.module", module)
	res.attr("s7.firmware", firmware)
	return res, nil
}

func indexOf(data []byte, b byte) int {
	for i, v := range data {
		if v == b {
			return i
		}
	}
	return -1
}

type s7Session struct {
	spec      Spec
	connected bool
}

func (s *s7Session) Greeting() []byte { return nil }

func (s *s7Session) Respond(req []byte) ([]byte, bool) {
	if len(req) < 6 || req[0] != 0x03 {
		return nil, true
	}
	if !s.connected {
		// Require the S7 TSAP parameter (0xC1): an RDP connection request
		// is also a COTP CR but carries a negotiation request instead.
		if req[5] != 0xE0 || indexOf(req, 0xC1) < 0 {
			return nil, true
		}
		s.connected = true
		// COTP CC; byte 11 is 0x32 to carry the S7 marker fingerprinters
		// key on.
		return []byte{0x03, 0x00, 0x00, 0x0D, 0x08, 0xD0, 0x00, 0x01, 0x00, 0x01, 0x00, 0x32, 0x00}, false
	}
	if idx := indexOf(req, 0x32); idx < 0 {
		return nil, true
	}
	module := s.spec.Product
	if module == "" {
		module = "6ES7 315-2EH14-0AB0"
	}
	firmware := s.spec.Version
	if firmware == "" {
		firmware = "3.2.6"
	}
	payload := module + ";" + firmware
	out := []byte{0x03, 0x00, 0x00, byte(13 + len(payload)), 0x02, 0xF0, 0x80}
	out = append(out, 0x32, 0x07, 0x00, 0x11, 0x00, byte(len(payload)))
	out = append(out, payload...)
	return out, false
}

// ---- DNP3 ----

// dnp3LinkStatusRequest is a data-link layer Request Link Status frame.
var dnp3LinkStatusRequest = []byte{
	0x05, 0x64, 0x05, 0xC9, // start, len, ctrl (PRM, REQUEST LINK STATUS)
	0x01, 0x00, // destination 1
	0x00, 0x04, // source 1024 (master)
	0xAA, 0xBB, // CRC (not validated in simulation)
}

// ScanDNP3 requests link status and records the outstation address.
func ScanDNP3(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(dnp3LinkStatusRequest); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	if len(data) < 10 || data[0] != 0x05 || data[1] != 0x64 {
		return &Result{Protocol: "DNP3"}, ErrUnexpected
	}
	res := &Result{Protocol: "DNP3", Complete: true, Banner: "DNP3 link status"}
	res.attr("dnp3.source_address", fmt.Sprintf("%d", binary.LittleEndian.Uint16(data[6:8])))
	res.attr("dnp3.function", fmt.Sprintf("%d", data[3]&0x0F))
	return res, nil
}

type dnp3Session struct {
	spec Spec
}

func (s *dnp3Session) Greeting() []byte { return nil }

func (s *dnp3Session) Respond(req []byte) ([]byte, bool) {
	if len(req) < 10 || req[0] != 0x05 || req[1] != 0x64 {
		return nil, true
	}
	addr := uint16(specUint(s.spec, "outstation", 1))
	out := []byte{0x05, 0x64, 0x05, 0x0B} // ctrl: LINK STATUS response
	out = binary.LittleEndian.AppendUint16(out, binary.LittleEndian.Uint16(req[6:8]))
	out = binary.LittleEndian.AppendUint16(out, addr)
	out = append(out, 0xCC, 0xDD)
	return out, false
}

// ---- BACnet ----

// bacnetReadPropertyName is BVLC + NPDU + ReadProperty(object-name) for
// device instance 1.
var bacnetReadPropertyName = []byte{
	0x81, 0x0A, 0x00, 0x11, // BVLC: unicast, length 17
	0x01, 0x04, // NPDU: version 1, expecting reply
	0x00, 0x05, 0x01, // APDU: confirmed request, invoke 1
	0x0C,                         // ReadProperty
	0x0C, 0x02, 0x00, 0x00, 0x01, // object id: device,1
	0x19, 0x4D, // property: object-name (77)
}

// ScanBACnet issues a ReadProperty(object-name) and parses the response.
func ScanBACnet(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(bacnetReadPropertyName); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	// BVLC frames carry their own length; a non-BACnet reply whose first
	// bytes coincide will fail the length check.
	if len(data) < 6 || data[0] != 0x81 || int(binary.BigEndian.Uint16(data[2:4])) != len(data) {
		return &Result{Protocol: "BACNET"}, ErrUnexpected
	}
	res := &Result{Protocol: "BACNET", Complete: true}
	// Our complexACK carries the name as a length-prefixed trailing string.
	if i := indexOf(data, 0x75); i >= 0 && i+2 < len(data) {
		l := int(data[i+1])
		if i+2+l <= len(data) {
			name := string(data[i+2 : i+2+l])
			res.attr("bacnet.object_name", name)
			res.Banner = truncate("BACnet " + name)
		}
	}
	res.attr("bacnet.vendor", "")
	return res, nil
}

type bacnetSession struct {
	spec Spec
}

func (s *bacnetSession) Greeting() []byte { return nil }

func (s *bacnetSession) Respond(req []byte) ([]byte, bool) {
	if len(req) < 4 || req[0] != 0x81 {
		return nil, false
	}
	name := s.spec.Title
	if name == "" {
		name = strings.TrimSpace(s.spec.Vendor + " " + s.spec.Product)
	}
	if name == "" {
		name = "HVAC-Controller-1"
	}
	out := []byte{0x81, 0x0A, 0x00, 0x00, 0x01, 0x00, 0x30, 0x01, 0x0C}
	out = append(out, 0x75, byte(len(name)))
	out = append(out, name...)
	binary.BigEndian.PutUint16(out[2:4], uint16(len(out)))
	return out, false
}

// ---- FINS (Omron) ----

// finsControllerDataRead is a FINS command 0x05 0x01 (Controller Data Read).
var finsControllerDataRead = []byte{
	0x80, 0x00, 0x02, 0x00, 0x00, 0x00, // ICF..DA2: simplified addressing
	0x00, 0x63, 0x00, 0x00, // SA1..SID
	0x05, 0x01, // MRC/SRC: controller data read
	0x00, 0x00,
}

// ScanFINS issues Controller Data Read and parses the model string.
func ScanFINS(rw io.ReadWriter) (*Result, error) {
	if _, err := rw.Write(finsControllerDataRead); err != nil {
		return nil, err
	}
	data, err := readSome(rw)
	if err != nil {
		return nil, err
	}
	if len(data) < 14 || data[0] != 0xC0 {
		return &Result{Protocol: "FINS"}, ErrUnexpected
	}
	model := strings.TrimRight(string(data[14:]), "\x00 ")
	res := &Result{Protocol: "FINS", Complete: true, Banner: truncate("FINS " + model)}
	res.attr("fins.model", model)
	return res, nil
}

type finsSession struct {
	spec Spec
}

func (s *finsSession) Greeting() []byte { return nil }

func (s *finsSession) Respond(req []byte) ([]byte, bool) {
	if len(req) < 12 || req[0] != 0x80 || req[10] != 0x05 || req[11] != 0x01 {
		return nil, false
	}
	model := s.spec.Product
	if model == "" {
		model = "CJ2M-CPU33"
	}
	out := []byte{0xC0, 0x00, 0x02, 0x00, 0x63, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x01, 0x00, 0x00}
	out = append(out, model...)
	return out, false
}
