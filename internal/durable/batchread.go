package durable

// Batched segment reads: a partition's chain is sized with one stat pass and
// read back-to-back into a single shared buffer — one allocation and one
// open/read per file, no per-file buffer growth. scanSegment aliases frame
// payloads into the bytes it is handed and DecodeRecord aliases event
// payloads into those, so the whole decode pipeline — CRC checks, snapshot
// repair, partition restore — runs zero-copy over that one buffer, which the
// restored journal then keeps alive.
//
// Fidelity with os.ReadFile is part of the contract: open errors, short
// files, and read errors must surface exactly as it would report them,
// because fsck golden fixtures pin Finding.Detail strings. Files that
// change size between stat and read (nothing the engine itself does) fall
// back to os.ReadFile for that file.

import (
	"io"
	"os"
	"path/filepath"
)

// readSegments reads every segment file of one partition chain into one
// shared allocation, returning per-file contents and errors positionally.
func (l *loader) readSegments(segs []segManifest) ([][]byte, []error) {
	sizes := make([]int64, len(segs))
	for i, sm := range segs {
		// A failed stat reserves zero bytes; the open in readSized produces
		// the authoritative (os.ReadFile-identical) error.
		if fi, err := os.Stat(filepath.Join(l.dir, sm.File)); err == nil {
			sizes[i] = fi.Size()
		}
	}
	return readSized(l.dir, segs, sizes)
}

// readSized reads each file into its sizes[i]-byte slot of one buffer. A
// size that no longer matches the file yields what os.ReadFile would.
func readSized(dir string, segs []segManifest, sizes []int64) ([][]byte, []error) {
	datas := make([][]byte, len(segs))
	errs := make([]error, len(segs))
	var total int64
	for _, n := range sizes {
		total += n
	}
	buf := make([]byte, total)
	for i, sm := range segs {
		dst := buf[:sizes[i]]
		buf = buf[sizes[i]:]
		path := filepath.Join(dir, sm.File)
		f, err := os.Open(path)
		if err != nil {
			errs[i] = err
			continue
		}
		n, rerr := io.ReadFull(f, dst)
		switch rerr {
		case nil:
			// Confirm EOF; a grown file re-reads through the plain path.
			var probe [1]byte
			if m, _ := f.Read(probe[:]); m > 0 {
				datas[i], errs[i] = os.ReadFile(path)
			} else {
				datas[i] = dst
			}
		case io.EOF, io.ErrUnexpectedEOF:
			// File shrank since stat: these are the bytes ReadFile would
			// have seen at read time.
			datas[i] = dst[:n]
		default:
			errs[i] = rerr
		}
		f.Close()
	}
	return datas, errs
}
