package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"time"
)

// ErrCorrupt marks damage in the interior of the log or snapshot — the
// kind a torn tail write cannot explain. The store refuses to open.
var ErrCorrupt = errors.New("store: corrupt")

// castagnoli is the CRC32C polynomial table shared by WAL frames and
// snapshot blobs.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeader is the fixed prefix of every frame: u32 payload length,
// u32 CRC32C of the payload, both little-endian.
const frameHeader = 8

// Record is one WAL entry: a dense sequence number, a type tag the
// owning layer dispatches on, and an opaque JSON payload.
type Record struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// SyncMode selects the WAL fsync discipline.
type SyncMode int

const (
	// SyncAlways fsyncs after every append: a record returned to the
	// caller is on stable storage. The safe default.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs at most once per 100 ms, piggybacked on
	// appends (plus on snapshot and close). A crash can lose up to one
	// interval of acknowledged records; recovery still never diverges,
	// it just replays a shorter committed prefix.
	SyncInterval
	// SyncNone never fsyncs the WAL on the append path; the OS page
	// cache decides. Fastest, weakest — for tests and bulk loads.
	SyncNone
)

// String names the mode for flags and status reports.
func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("syncmode(%d)", int(m))
}

// ParseSyncMode reads a -fsync flag value.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return SyncAlways, fmt.Errorf("store: unknown sync mode %q (always|interval|none)", s)
}

// recordFrame encodes one record as its frame in one pass. The payload
// is byte for byte json.Marshal(Record{seq, typ, json.Marshal(data)}):
// a json.Encoder writes each value as Marshal does, compact with HTML
// escaping, and the newline it ends a value with becomes the comma or
// brace that follows it in the envelope.
func recordFrame(seq uint64, typ string, data any) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, frameHeader, 64))
	buf.WriteString(`{"seq":`)
	buf.Write(strconv.AppendUint(buf.AvailableBuffer(), seq, 10))
	buf.WriteString(`,"type":`)
	enc := json.NewEncoder(buf)
	if err := enc.Encode(typ); err != nil {
		return nil, err
	}
	buf.Truncate(buf.Len() - 1)
	buf.WriteString(`,"data":`)
	if err := enc.Encode(data); err != nil {
		return nil, err
	}
	frame := buf.Bytes()
	frame[len(frame)-1] = '}'
	sealFrame(frame)
	return frame, nil
}

// sealFrame fills in the header of frame for the payload after it.
func sealFrame(frame []byte) {
	payload := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// frameAt tries to decode one frame at data[off:]. It returns the
// payload and the end offset of the frame, or an error describing why
// no complete, intact frame starts there.
func frameAt(data []byte, off int64, maxRecord int) (payload []byte, end int64, err error) {
	rest := data[off:]
	if len(rest) < frameHeader {
		return nil, 0, fmt.Errorf("short header: %d bytes", len(rest))
	}
	n := int(binary.LittleEndian.Uint32(rest[0:4]))
	if n > maxRecord {
		return nil, 0, fmt.Errorf("implausible record length %d", n)
	}
	if len(rest) < frameHeader+n {
		return nil, 0, fmt.Errorf("short payload: have %d of %d bytes", len(rest)-frameHeader, n)
	}
	payload = rest[frameHeader : frameHeader+n]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(rest[4:8]); got != want {
		return nil, 0, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	return payload, off + int64(frameHeader+n), nil
}

// scanResult is what scanWAL recovers from raw WAL bytes.
type scanResult struct {
	records  []Record // every intact record, in order
	goodEnd  int64    // end offset of the last intact frame
	torn     int64    // bytes dropped from a torn tail (0 = clean)
	tornNote string   // human-readable cause of the truncation
}

// scanWAL validates the whole log. firstSeq constrains the first
// record's sequence number when positive (it must be <= firstSeq; a
// larger value means records between the snapshot and the log were
// lost, which is interior damage, not a torn tail).
//
// On a frame that fails to decode, scanWAL decides between the two
// possible worlds: if any intact frame exists beyond the damage the log
// was corrupted in the middle — ErrCorrupt — otherwise the damage is
// the torn tail of a crashed append and is dropped.
func scanWAL(data []byte, snapshotSeq uint64, maxRecord int) (*scanResult, error) {
	res := &scanResult{}
	var off int64
	var lastSeq uint64
	for off < int64(len(data)) {
		payload, end, ferr := frameAt(data, off, maxRecord)
		if ferr != nil {
			if resync(data, off+1, maxRecord) {
				return nil, fmt.Errorf("%w: bad frame at offset %d (%v) with intact records beyond it", ErrCorrupt, off, ferr)
			}
			res.torn = int64(len(data)) - off
			res.tornNote = ferr.Error()
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The frame checksum passed, so these bytes are exactly what
			// was appended: an unparsable record is interior damage (or a
			// foreign file), never a torn write.
			return nil, fmt.Errorf("%w: record at offset %d undecodable: %v", ErrCorrupt, off, err)
		}
		switch {
		case len(res.records) == 0:
			if rec.Seq > snapshotSeq+1 {
				return nil, fmt.Errorf("%w: log starts at seq %d but snapshot covers only seq %d", ErrCorrupt, rec.Seq, snapshotSeq)
			}
		case rec.Seq != lastSeq+1:
			return nil, fmt.Errorf("%w: record at offset %d has seq %d after seq %d", ErrCorrupt, off, rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		res.records = append(res.records, rec)
		res.goodEnd = end
		off = end
	}
	return res, nil
}

// first returns the sequence number of the log's first record, or
// lastSeq+1 when it holds none.
func (r *scanResult) first(lastSeq uint64) uint64 {
	if len(r.records) == 0 {
		return lastSeq + 1
	}
	return r.records[0].Seq
}

// resync reports whether any intact frame starts at or after offset
// from — the discriminator between a torn tail (no) and interior
// corruption (yes). A random 8-byte window passing a CRC32C check over
// its declared payload is a ~2^-32 event, so a hit is conclusive.
func resync(data []byte, from int64, maxRecord int) bool {
	for off := from; off+frameHeader <= int64(len(data)); off++ {
		if _, _, err := frameAt(data, off, maxRecord); err == nil {
			return true
		}
	}
	return false
}

// syncClock abstracts time for the interval discipline so tests can
// drive it; production uses the wall clock.
type syncClock func() time.Time
