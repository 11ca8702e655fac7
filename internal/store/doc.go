// Package store is the daemon's crash-safe durability subsystem: an
// append-only write-ahead log of typed, CRC32C-framed records plus
// atomic snapshot compaction, all on the standard library.
//
// Every state mutation of the control plane (server up/down, deployment
// created/remapped, autopilot transitions) becomes one WAL record. A
// record is framed as
//
//	| u32 length | u32 CRC32C(payload) | payload |
//
// with little-endian headers and a JSON payload {seq, type, data}.
// Sequence numbers are dense: record k+1 always carries seq(k)+1, so a
// gap is distinguishable from a clean tail.
//
// Snapshots bound replay time: SnapshotTo streams the caller's opaque
// state to a temp file, fsyncs, and renames it into place
// (snap-<seq>.bin), then rewrites the WAL keeping only records newer
// than the covered sequence. Every crash window between those steps
// recovers cleanly because replay skips records at or below the
// snapshot's sequence. The caller's encoder runs once; its output is
// cut into frames of at most 64 KiB in the WAL's framing, each written
// in one Write, and recovery checks every frame and joins their
// payloads. A state of at most 65,528 bytes is one frame. Snapshot is
// the one-buffer form.
//
// Recovery (Open) replays snapshot+log. A torn or partial tail record —
// the only corruption a crashed append can produce on an append-only
// file — is truncated and counted. Corruption in the middle of the log
// (a valid frame exists beyond the damage) can only mean bit rot or
// tampering and is rejected loudly with ErrCorrupt; the store refuses
// to open rather than silently diverge.
//
// The fsync discipline is configurable (SyncAlways, SyncInterval at a
// fixed 100 ms, SyncNone) and instrumented: fsync latency lands in the
// "store.fsync_seconds" histogram, whole appends (marshal, lock wait,
// write, fsync) in "store.append_seconds", appends/replays/truncations on
// counters, and Append/SnapshotTo emit store.append and store.snapshot
// spans once SetTracer attaches a tracer.
package store
