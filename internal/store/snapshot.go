package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"wsdeploy/internal/faultfs"
)

// Snapshot files are named snap-<seq>.bin where seq is the last record
// sequence the state covers; the content is the caller's opaque state
// cut into CRC32C frames, in order. The name carries the sequence so
// recovery can order snapshots without trusting file times, and every
// frame carries a checksum so a damaged snapshot is loud, not wrong.

const (
	snapPrefix = "snap-"
	snapSuffix = ".bin"
	walName    = "wal.log"
	tmpSuffix  = ".tmp"
)

func snapName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", snapPrefix, seq, snapSuffix)
}

// parseSnapName extracts the covered sequence from a snapshot filename.
func parseSnapName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// snapFrameSize bounds one snapshot frame, header included. A state of
// at most snapFrameSize-frameHeader bytes is one frame, written in one
// Write, exactly as an unstreamed snapshot was.
const snapFrameSize = 64 << 10

// frameWriter cuts a streamed state into frames in one reused buffer of
// snapFrameSize bytes, header included, and writes a full frame in one
// Write once more state arrives; flush writes the last one. The first
// failure sticks: the disk's (op OpWrite), or the state passing limit.
type frameWriter struct {
	w     io.Writer
	buf   []byte // frame header, then the pending payload
	n     int64  // state bytes accepted
	limit int64
	err   error
	op    faultfs.Op
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	if fw.err == nil && fw.n+int64(len(p)) > fw.limit {
		fw.err = fmt.Errorf("snapshot exceeds the %d-byte limit", fw.limit)
	}
	if fw.err != nil {
		return 0, fw.err
	}
	fw.n += int64(len(p))
	for rest := p; len(rest) > 0; {
		if len(fw.buf) == cap(fw.buf) && fw.flush() != nil {
			return 0, fw.err
		}
		k := copy(fw.buf[len(fw.buf):cap(fw.buf)], rest)
		fw.buf, rest = fw.buf[:len(fw.buf)+k], rest[k:]
	}
	return len(p), nil
}

// flush seals and writes the pending frame, then empties the buffer.
func (fw *frameWriter) flush() error {
	sealFrame(fw.buf)
	if _, err := fw.w.Write(fw.buf); err != nil {
		fw.err, fw.op = err, faultfs.OpWrite
	}
	fw.buf = fw.buf[:frameHeader]
	return fw.err
}

// writeFileAtomic writes data to path via a temp file in the same
// directory: write → fsync → rename → fsync(dir). After it returns the
// file is durably either absent or complete, never partial. On failure
// the temp file is removed and the returned Op tags the stage that
// failed ("" for open/close), so callers can feed the per-class fault
// counters.
func writeFileAtomic(fsys faultfs.FS, path string, data []byte) (faultfs.Op, error) {
	op, err := writeTemp(fsys, path, func(f faultfs.File) (faultfs.Op, error) {
		_, err := f.Write(data)
		return faultfs.OpWrite, err
	})
	if err != nil {
		return op, err
	}
	return publish(fsys, path)
}

// writeTemp is the first half of writeFileAtomic: it fills path's temp
// file, fsyncs and closes it. On failure the temp file is removed and
// the Op is fill's ("" for fill errors that are not the disk's).
func writeTemp(fsys faultfs.FS, path string, fill func(faultfs.File) (faultfs.Op, error)) (faultfs.Op, error) {
	tmp := path + tmpSuffix
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	if op, err := fill(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return op, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return faultfs.OpSync, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return "", err
	}
	return "", nil
}

// publish is the second half of writeFileAtomic: it renames path's
// finished temp file into place and fsyncs the directory.
func publish(fsys faultfs.FS, path string) (faultfs.Op, error) {
	tmp := path + tmpSuffix
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return faultfs.OpRename, err
	}
	return faultfs.OpSync, syncDir(fsys, filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a power cut.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// loadLatestSnapshot finds the highest-sequence snapshot in dir,
// verifies its frames, and returns its state. A missing snapshot returns
// (nil, 0, nil); a damaged one returns ErrCorrupt — snapshots are
// written atomically, so a named snapshot that fails its checksum is
// interior damage, not a crash artifact. Leftover temp files from a
// crashed snapshot attempt are removed.
func loadLatestSnapshot(fsys faultfs.FS, dir string, maxRecord int) (state []byte, seq uint64, err error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, 0, err
	}
	best := uint64(0)
	found := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			fsys.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if s, ok := parseSnapName(e.Name()); ok && (!found || s > best) {
			best, found = s, true
		}
	}
	if !found {
		return nil, 0, nil
	}
	raw, err := fsys.ReadFile(filepath.Join(dir, snapName(best)))
	if err != nil {
		return nil, 0, err
	}
	// Every frame must check out, and the state they carry stay within
	// maxRecord; the payloads are joined in place, at the front of raw.
	n := 0
	for off := int64(0); ; {
		payload, end, ferr := frameAt(raw, off, maxRecord)
		if ferr == nil && n+len(payload) > maxRecord {
			ferr = fmt.Errorf("state exceeds the %d-byte limit", maxRecord)
		}
		if ferr != nil {
			return nil, 0, fmt.Errorf("%w: snapshot %s: frame at offset %d: %v", ErrCorrupt, snapName(best), off, ferr)
		}
		n += copy(raw[n:], payload)
		if off = end; off == int64(len(raw)) {
			return raw[:n], best, nil
		}
	}
}

// pruneSnapshots removes every snapshot older than keep. Best-effort:
// stale files cost disk, not correctness.
func pruneSnapshots(fsys faultfs.FS, dir string, keep uint64) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if s, ok := parseSnapName(e.Name()); ok && s < keep {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// snapshotSeqs lists the covered sequences of every snapshot present,
// ascending — Status reporting.
func snapshotSeqs(fsys faultfs.FS, dir string) []uint64 {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []uint64
	for _, e := range entries {
		if s, ok := parseSnapName(e.Name()); ok {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
