package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"wsdeploy/internal/faultfs"
)

// Snapshot files are named snap-<seq>.bin where seq is the last record
// sequence the state covers; the content is one CRC32C frame around the
// caller's opaque state. The name carries the sequence so recovery can
// order snapshots without trusting file times, and the frame carries
// the checksum so a damaged snapshot is loud, not wrong.

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

// snapBufSize is the write-pass buffer of a streamed snapshot: a frame
// no larger than this reaches the temp file in exactly one Write.
const snapBufSize = 64 << 10

// frameSum counts and checksums a frame payload as it streams past.
// The sizing pass of SnapshotTo writes into one to learn the frame
// header; the write pass tees into another to prove the encoder wrote
// the same bytes again.
type frameSum struct {
	n   int64
	crc uint32
}

func (c *frameSum) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	c.crc = crc32.Update(c.crc, castagnoli, p)
	return len(p), nil
}

// header is the frame prefix encodeFrame writes for the counted payload.
func (c *frameSum) header() []byte {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(c.n))
	binary.LittleEndian.PutUint32(hdr[4:8], c.crc)
	return hdr
}

// errWriter remembers the first error of the file under a stream, so a
// failed snapshot is blamed on the disk rather than on the encoder.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}

// streamFrame writes the frame that want sized to f: the header, then a
// second run of encode through a buffered writer. That run must
// reproduce want's length and checksum exactly; a mismatch is caught
// before the last flush, and the caller discards the temp file.
func streamFrame(f faultfs.File, want frameSum, encode func(io.Writer) error) (faultfs.Op, error) {
	fw := &errWriter{w: f}
	bw := bufio.NewWriterSize(fw, snapBufSize)
	bw.Write(want.header())
	var got frameSum
	err := encode(io.MultiWriter(&got, bw))
	switch {
	case fw.err != nil:
		return faultfs.OpWrite, fw.err
	case err != nil:
		return "", fmt.Errorf("encoding snapshot: %w", err)
	case got != want:
		return "", fmt.Errorf("snapshot encoder is not deterministic: sizing pass wrote %d bytes (crc %08x), write pass %d bytes (crc %08x)",
			want.n, want.crc, got.n, got.crc)
	}
	if err := bw.Flush(); err != nil {
		return faultfs.OpWrite, err
	}
	return "", nil
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
// verifies its frame, and returns its state. A missing snapshot returns
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
	payload, end, ferr := frameAt(raw, 0, maxRecord)
	if ferr != nil || end != int64(len(raw)) {
		if ferr == nil {
			ferr = fmt.Errorf("%d trailing bytes", int64(len(raw))-end)
		}
		return nil, 0, fmt.Errorf("%w: snapshot %s: %v", ErrCorrupt, snapName(best), ferr)
	}
	return payload, best, nil
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
