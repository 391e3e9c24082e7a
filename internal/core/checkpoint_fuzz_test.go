package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"censysmap/internal/binrec"
	"censysmap/internal/cqrs"
	"censysmap/internal/predict"
	"censysmap/internal/webprop"
)

// sectionValue is a binary checkpoint section's Go value.
type sectionValue interface {
	json.Marshaler
	json.Unmarshaler
}

// binarySections lists every binary checkpoint section by its path in the
// checkpoint, with the value it decodes into.
var binarySections = []struct {
	path []string
	new  func() sectionValue
}{
	{[]string{"predictor", "suggested"}, func() sectionValue { return new(predict.Suggestions) }},
	{[]string{"predictor", "evicted"}, func() sectionValue { return new(predict.Evictions) }},
	{[]string{"predictor", "host_ports"}, func() sectionValue { return new(predict.HostPorts) }},
	{[]string{"predictor", "cooc"}, func() sectionValue { return new(predict.PortPairs) }},
	{[]string{"predictor", "full_cooc"}, func() sectionValue { return new(predict.SamplePortPairs) }},
	{[]string{"predictor", "full_port_hosts"}, func() sectionValue { return new(predict.PortCounts) }},
	{[]string{"predictor", "full_hosts"}, func() sectionValue { return new(predict.Hosts) }},
	{[]string{"processor", "slots"}, func() sectionValue { return new(cqrs.Liveness) }},
	{[]string{"web_props", "names"}, func() sectionValue { return new(webprop.NameRecords) }},
}

// realCheckpoint is a checkpoint of the hostile universe after a week:
// every binary section is non-empty. Built once per process.
var realCheckpoint = sync.OnceValues(func() (Checkpoint, error) {
	net, cfg := hostileUniverse()
	m, err := New(cfg, net)
	if err != nil {
		return Checkpoint{}, err
	}
	runFor(m, 7*24*time.Hour)
	m.Stop()
	return m.Checkpoint(), nil
})

// sectionValues returns each binary section's JSON value in blob, in
// binarySections order.
func sectionValues(t testing.TB, blob []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for _, s := range binarySections {
		raw := json.RawMessage(blob)
		for _, key := range s.path {
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(raw, &obj); err != nil {
				t.Fatal(err)
			}
			raw = obj[key]
		}
		if len(raw) == 0 {
			t.Fatalf("checkpoint has no %s section", strings.Join(s.path, "."))
		}
		out = append(out, raw)
	}
	return out
}

// TestCheckpointSectionsRoundTrip: every binary section of a real checkpoint
// decodes to the value it was encoded from, and re-encodes to its own bytes.
func TestCheckpointSectionsRoundTrip(t *testing.T) {
	live, err := realCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	for what, pair := range map[string][2]any{
		"predictor": {cp.Predictor, live.Predictor},
		"processor": {cp.Processor, live.Processor},
		"web_props": {cp.WebProps, live.WebProps},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Errorf("%s section decodes to a different value", what)
		}
	}
	if again, err := json.Marshal(cp); err != nil || !bytes.Equal(again, blob) {
		t.Errorf("a decoded checkpoint re-encodes differently (%v)", err)
	}
}

// TestParentShapedSectionRefused: a checkpoint whose predictor.suggested
// still has the JSON array shape of checkpoints written before the binary
// sections is refused, and the error names the section. So does every other
// section, each by its own key, in either old shape.
func TestParentShapedSectionRefused(t *testing.T) {
	live, err := realCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	var sections, pred map[string]json.RawMessage
	if err := json.Unmarshal(blob, &sections); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sections["predictor"], &pred); err != nil {
		t.Fatal(err)
	}
	pred["suggested"] = json.RawMessage(`[{"target":{"Addr":"10.0.0.7","Port":8080,"Transport":"tcp",` +
		`"Reason":"net24"},"at":"2024-01-02T03:00:00Z"}]`)
	if sections["predictor"], err = json.Marshal(pred); err != nil {
		t.Fatal(err)
	}
	parent, err := json.Marshal(sections)
	if err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	err = json.Unmarshal(parent, &cp)
	if !errors.Is(err, binrec.ErrSection) || !strings.Contains(err.Error(), `"suggested"`) {
		t.Fatalf("parent-shaped suggested section: err = %v, want a refusal naming the section", err)
	}
	for _, s := range binarySections {
		key := `"` + s.path[len(s.path)-1] + `"`
		for _, old := range []string{`[]`, `{}`} {
			if err := s.new().UnmarshalJSON([]byte(old)); !errors.Is(err, binrec.ErrSection) || !strings.Contains(err.Error(), key) {
				t.Errorf("%s as %s: err = %v, want a refusal naming %s", strings.Join(s.path, "."), old, err, key)
			}
		}
	}
}

// FuzzCheckpointDecode: for every binary section, bytes the decoder accepts
// re-encode to themselves, and their value survives a second round trip.
// Seeded from each section of a real checkpoint, truncated, extended and
// bit-flipped. A selector with the high bit set hands the bytes over as the
// JSON value itself rather than as a body wrapped in base64, which exercises
// the envelope's own strictness.
func FuzzCheckpointDecode(f *testing.F) {
	live, err := realCheckpoint()
	if err != nil {
		f.Fatal(err)
	}
	blob, err := json.Marshal(live)
	if err != nil {
		f.Fatal(err)
	}
	for i, raw := range sectionValues(f, blob) {
		body, err := base64.StdEncoding.DecodeString(strings.Trim(string(raw), `"`))
		if err != nil {
			f.Fatal(err)
		}
		s := uint8(i)
		f.Add(s, body)
		f.Add(s, body[:len(body)-1])
		f.Add(s, append(append([]byte(nil), body...), 0))
		for _, bit := range []int{0, 9, len(body) * 4, len(body)*8 - 1} {
			flipped := append([]byte(nil), body...)
			flipped[bit/8] ^= 1 << (bit % 8)
			f.Add(s, flipped)
		}
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(128), []byte(`"AA=="`))

	f.Fuzz(func(t *testing.T, section uint8, body []byte) {
		s := binarySections[int(section&127)%len(binarySections)]
		data := body
		if section&128 == 0 {
			data = binrec.AppendSection(nil, body)
		}
		v := s.new()
		if v.UnmarshalJSON(data) != nil {
			return
		}
		again, err := v.MarshalJSON()
		if err != nil {
			t.Fatalf("%s: accepted value does not encode: %v", strings.Join(s.path, "."), err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%s: accepted %q re-encodes to %s", strings.Join(s.path, "."), data, again)
		}
		w := s.new()
		if err := w.UnmarshalJSON(again); err != nil || !reflect.DeepEqual(v, w) {
			t.Fatalf("%s: re-encoding decodes differently (%v)", strings.Join(s.path, "."), err)
		}
	})
}
