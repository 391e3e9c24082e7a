package journal

import (
	"reflect"
	"testing"
)

// A partitioned store must be observably identical to the serial store: same
// per-entity sequences, same replay results, same sorted entity listing,
// same aggregate stats. Partitioning only changes lock granularity.
func TestPartitionedStoreMatchesSerial(t *testing.T) {
	serial := NewStore()
	parted := NewPartitioned(4)
	if got := parted.Partitions(); got != 4 {
		t.Fatalf("Partitions() = %d, want 4", got)
	}

	entities := []string{"10.0.0.9", "10.0.0.1", "10.0.1.200", "10.0.0.77", "192.168.3.3"}
	for _, s := range []*Store{serial, parted} {
		for i, e := range entities {
			for h := 0; h < 6; h++ {
				if h == 3 {
					if _, err := s.AppendSnapshot(e, ts(h), []byte{byte(i)}); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if _, err := s.Append(e, ts(h), "ev", []byte{byte(i), byte(h)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if !reflect.DeepEqual(serial.Entities(), parted.Entities()) {
		t.Fatalf("entity listings diverge: %v vs %v", serial.Entities(), parted.Entities())
	}
	for _, e := range serial.Entities() {
		se := serial.Events(e)
		pe := parted.Events(e)
		if !reflect.DeepEqual(se, pe) {
			t.Fatalf("events for %s diverge", e)
		}
		for h := 0; h < 6; h++ {
			ss, sd, sf := serial.Replay(e, ts(h))
			ps, pd, pf := parted.Replay(e, ts(h))
			if sf != pf || !reflect.DeepEqual(ss, ps) || !reflect.DeepEqual(sd, pd) {
				t.Fatalf("replay(%s, h=%d) diverges", e, h)
			}
		}
	}

	if ss, ps := serial.Stats(), parted.Stats(); ss != ps {
		t.Fatalf("stats diverge:\n serial %+v\n parted %+v", ss, ps)
	}
}
