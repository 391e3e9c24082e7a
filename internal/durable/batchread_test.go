package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReadSegmentsMatchesReadFile holds the batched shared-buffer reader to
// os.ReadFile's answers — same bytes, same error text — for an intact chain,
// a missing file, and files whose size moved between the stat pass and the
// read (simulated by handing readSized a stale size).
func TestReadSegmentsMatchesReadFile(t *testing.T) {
	dir := t.TempDir()
	contents := map[string][]byte{
		"a.seg":     bytes.Repeat([]byte("a"), 100),
		"empty.seg": {},
		"b.seg":     bytes.Repeat([]byte("b"), 37),
	}
	for name, data := range contents {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs := []segManifest{{File: "a.seg"}, {File: "gone.seg"}, {File: "empty.seg"}, {File: "b.seg"}}

	check := func(t *testing.T, datas [][]byte, errs []error) {
		t.Helper()
		for i, sm := range segs {
			want, wantErr := os.ReadFile(filepath.Join(dir, sm.File))
			if (errs[i] == nil) != (wantErr == nil) ||
				(wantErr != nil && errs[i].Error() != wantErr.Error()) {
				t.Fatalf("%s: err %v, os.ReadFile says %v", sm.File, errs[i], wantErr)
			}
			if !bytes.Equal(datas[i], want) {
				t.Fatalf("%s: %d bytes, os.ReadFile says %d", sm.File, len(datas[i]), len(want))
			}
		}
	}

	l := &loader{dir: dir}
	datas, errs := l.readSegments(segs)
	check(t, datas, errs)

	for name, sizes := range map[string][]int64{
		"grown since stat":  {60, 0, 0, 10},
		"shrunk since stat": {150, 0, 8, 64},
		"stat failed":       {0, 0, 0, 0},
	} {
		t.Run(name, func(t *testing.T) {
			datas, errs := readSized(dir, segs, sizes)
			check(t, datas, errs)
		})
	}
}
