//! The wire protocol: length-prefixed frames with a versioned handshake.
//!
//! Every frame on the wire is
//!
//! ```text
//! ┌──────────────┬───────────┬──────────────────┐
//! │ len: u32 LE  │ kind: u8  │ body (len-1 B)   │
//! └──────────────┴───────────┴──────────────────┘
//! ```
//!
//! where `len` counts the kind byte plus the body. A frame leaves in one
//! `write` call: the encoder reserves the prefix in the same buffer as the
//! payload, so no frame is ever split into a tiny prefix segment that
//! Nagle's algorithm would hold back until the peer's delayed ACK. Both
//! ends also set `TCP_NODELAY` on their sockets. A connection starts
//! with a `Hello` exchange: the client's `Hello` carries the 4-byte magic
//! `IDBW` and the protocol version, the server answers with its own
//! `Hello` (version + banner) or an `Error` frame and closes. After the
//! handshake the client sends `Query`/`Ping`/`Close` frames and the
//! server answers each with `ResultSet`/`Error`/`Pong`.
//!
//! `Error` frames are *typed*: they carry the engine error's
//! [`class`](instant_common::Error::class) name plus the display message,
//! and the client rebuilds the matching [`Error`] variant with
//! [`Error::from_class`] — so `SELEKT …` surfaces as [`Error::Parse`] on
//! the client exactly as it would embedded, and an admission-control shed
//! surfaces as [`Error::ServerBusy`].
//!
//! Frames larger than the reader's limit are rejected without being read
//! (the length prefix alone condemns them); since the stream position is
//! then unknowable, the connection must close after the typed error.
//! Values inside a `ResultSet` reuse the storage codec
//! ([`instant_common::codec`]) — one value encoding for heap, WAL and
//! wire.

use std::io::{Read, Write};

use instant_common::codec::{decode_row, encode_row, raw};
use instant_common::{Error, Result};
use instant_core::query::{QueryOutput, QueryResult};
use instant_obs::{HistogramSnapshot, PurposeCounters, SlowQuery, StatsSnapshot};

/// Handshake magic: identifies the InstantDB wire protocol.
pub const MAGIC: [u8; 4] = *b"IDBW";
/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u8 = 1;
/// Default cap on one frame's `len` field (kind + body).
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 4 * 1024 * 1024;

const KIND_HELLO: u8 = 1;
const KIND_QUERY: u8 = 2;
const KIND_RESULT: u8 = 3;
const KIND_ERROR: u8 = 4;
const KIND_PING: u8 = 5;
const KIND_PONG: u8 = 6;
const KIND_CLOSE: u8 = 7;
const KIND_STATS: u8 = 8;
// 9–13: the SEGS replication sub-protocol (see [`SegFrame`]). A
// replication link speaks *only* these kinds; a SQL link speaks only
// 1–8. The kind spaces are disjoint so a frame that strays onto the
// wrong link fails loudly as "unknown frame kind".
const KIND_SEG_HELLO: u8 = 9;
const KIND_SEG_META: u8 = 10;
const KIND_SEG_SEGMENT: u8 = 11;
const KIND_SEG_PROGRESS: u8 = 12;
const KIND_SEG_ACK: u8 = 13;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake, both directions: magic + version + free-form banner.
    Hello { version: u8, banner: String },
    /// One SQL statement (client → server).
    Query { sql: String },
    /// A statement's output (server → client).
    ResultSet(QueryOutput),
    /// A typed error: [`Error::class`] name + display message.
    Error { class: String, message: String },
    /// Liveness probe (client → server).
    Ping,
    /// Probe answer (server → client).
    Pong,
    /// Graceful end of session (client → server); the server closes the
    /// connection without a reply.
    Close,
    /// The full observability snapshot (server → client): the server's
    /// answer to `SHOW STATS`, in a dedicated frame so monitoring agents
    /// can match on the kind byte without decoding result-set payloads.
    Stats(Box<StatsSnapshot>),
}

impl Frame {
    /// The typed-error frame for an engine error.
    pub fn error(e: &Error) -> Frame {
        Frame::Error {
            class: e.class().to_string(),
            message: e.to_string(),
        }
    }

    /// Rebuild the engine error a received [`Frame::Error`] carries.
    pub fn to_engine_error(class: &str, message: &str) -> Error {
        Error::from_class(class, message)
    }

    /// The frame's wire image with its `len` prefix still unfilled (see
    /// [`frame_buf`]).
    fn encode(&self) -> Vec<u8> {
        let mut out = frame_buf();
        match self {
            Frame::Hello { version, banner } => {
                out.push(KIND_HELLO);
                out.extend_from_slice(&MAGIC);
                out.push(*version);
                raw::put_bytes(&mut out, banner.as_bytes());
            }
            Frame::Query { sql } => {
                out.push(KIND_QUERY);
                raw::put_bytes(&mut out, sql.as_bytes());
            }
            Frame::ResultSet(output) => {
                out.push(KIND_RESULT);
                encode_output(output, &mut out);
            }
            Frame::Error { class, message } => {
                out.push(KIND_ERROR);
                raw::put_bytes(&mut out, class.as_bytes());
                raw::put_bytes(&mut out, message.as_bytes());
            }
            Frame::Ping => out.push(KIND_PING),
            Frame::Pong => out.push(KIND_PONG),
            Frame::Close => out.push(KIND_CLOSE),
            Frame::Stats(snap) => {
                out.push(KIND_STATS);
                encode_snapshot(snap, &mut out);
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<Frame> {
        let (&kind, mut body) = payload
            .split_first()
            .ok_or_else(|| Error::Corrupt("empty frame".into()))?;
        let frame = match kind {
            KIND_HELLO => {
                let magic: Vec<u8> = take(&mut body, 4)?.to_vec();
                if magic != MAGIC {
                    return Err(Error::Corrupt("bad handshake magic".into()));
                }
                let version = take(&mut body, 1)?[0];
                Frame::Hello {
                    version,
                    banner: get_string(&mut body)?,
                }
            }
            KIND_QUERY => Frame::Query {
                sql: get_string(&mut body)?,
            },
            KIND_RESULT => Frame::ResultSet(decode_output(&mut body)?),
            KIND_ERROR => Frame::Error {
                class: get_string(&mut body)?,
                message: get_string(&mut body)?,
            },
            KIND_PING => Frame::Ping,
            KIND_PONG => Frame::Pong,
            KIND_CLOSE => Frame::Close,
            KIND_STATS => Frame::Stats(Box::new(decode_snapshot(&mut body)?)),
            other => return Err(Error::Corrupt(format!("unknown frame kind {other}"))),
        };
        if !body.is_empty() {
            return Err(Error::Corrupt(format!(
                "{} trailing bytes after frame",
                body.len()
            )));
        }
        Ok(frame)
    }
}

const OUT_TABLE_CREATED: u8 = 0;
const OUT_INSERTED: u8 = 1;
const OUT_ROWS: u8 = 2;
const OUT_DELETED: u8 = 3;
const OUT_PURPOSE: u8 = 4;
const OUT_CHECKPOINTED: u8 = 5;
const OUT_STATS: u8 = 6;

fn encode_output(output: &QueryOutput, out: &mut Vec<u8>) {
    match output {
        QueryOutput::TableCreated(name) => {
            out.push(OUT_TABLE_CREATED);
            raw::put_bytes(out, name.as_bytes());
        }
        QueryOutput::Inserted(n) => {
            out.push(OUT_INSERTED);
            raw::put_u64(out, *n as u64);
        }
        QueryOutput::Rows(r) => {
            out.push(OUT_ROWS);
            raw::put_u32(out, r.columns.len() as u32);
            for c in &r.columns {
                raw::put_bytes(out, c.as_bytes());
            }
            raw::put_u32(out, r.rows.len() as u32);
            for row in &r.rows {
                encode_row(row, out);
            }
            raw::put_bytes(out, r.plan.as_bytes());
        }
        QueryOutput::Deleted(n) => {
            out.push(OUT_DELETED);
            raw::put_u64(out, *n as u64);
        }
        QueryOutput::PurposeDeclared(name) => {
            out.push(OUT_PURPOSE);
            raw::put_bytes(out, name.as_bytes());
        }
        QueryOutput::Checkpointed => out.push(OUT_CHECKPOINTED),
        QueryOutput::Stats(snap) => {
            out.push(OUT_STATS);
            encode_snapshot(snap, out);
        }
    }
}

fn decode_output(buf: &mut &[u8]) -> Result<QueryOutput> {
    let tag = take(buf, 1)?[0];
    Ok(match tag {
        OUT_TABLE_CREATED => QueryOutput::TableCreated(get_string(buf)?),
        OUT_INSERTED => QueryOutput::Inserted(raw::get_u64(buf)? as usize),
        OUT_ROWS => {
            let ncols = raw::get_u32(buf)? as usize;
            // Clamp pre-allocations to defend against a corrupt/hostile
            // count field demanding gigabytes; pushes still grow past it.
            let mut columns = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                columns.push(get_string(buf)?);
            }
            let nrows = raw::get_u32(buf)? as usize;
            let mut rows = Vec::with_capacity(nrows.min(1024));
            for _ in 0..nrows {
                rows.push(decode_row(buf)?);
            }
            QueryOutput::Rows(QueryResult {
                columns,
                rows,
                plan: get_string(buf)?,
            })
        }
        OUT_DELETED => QueryOutput::Deleted(raw::get_u64(buf)? as usize),
        OUT_PURPOSE => QueryOutput::PurposeDeclared(get_string(buf)?),
        OUT_CHECKPOINTED => QueryOutput::Checkpointed,
        OUT_STATS => QueryOutput::Stats(Box::new(decode_snapshot(buf)?)),
        other => return Err(Error::Corrupt(format!("unknown output tag {other}"))),
    })
}

/// Encode a [`StatsSnapshot`]. Histograms go sparse — `(bucket index,
/// count)` pairs for the non-zero buckets only — since a live snapshot
/// typically populates a handful of its 64 buckets.
fn encode_snapshot(s: &StatsSnapshot, out: &mut Vec<u8>) {
    raw::put_u32(out, s.counters.len() as u32);
    for (name, v) in &s.counters {
        raw::put_bytes(out, name.as_bytes());
        raw::put_u64(out, *v);
    }
    raw::put_u32(out, s.gauges.len() as u32);
    for (name, v) in &s.gauges {
        raw::put_bytes(out, name.as_bytes());
        raw::put_u64(out, *v as u64);
    }
    raw::put_u32(out, s.hists.len() as u32);
    for (name, h) in &s.hists {
        raw::put_bytes(out, name.as_bytes());
        encode_hist(h, out);
    }
    raw::put_u32(out, s.purposes.len() as u32);
    for (name, c) in &s.purposes {
        raw::put_bytes(out, name.as_bytes());
        raw::put_u64(out, c.queries);
        raw::put_u64(out, c.rows);
    }
    raw::put_u32(out, s.slow_queries.len() as u32);
    for q in &s.slow_queries {
        raw::put_bytes(out, q.kind.as_bytes());
        raw::put_bytes(out, q.purpose.as_bytes());
        raw::put_u64(out, q.elapsed_micros);
    }
}

fn decode_snapshot(buf: &mut &[u8]) -> Result<StatsSnapshot> {
    let mut s = StatsSnapshot::default();
    let n = raw::get_u32(buf)? as usize;
    s.counters.reserve(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        s.counters.push((name, raw::get_u64(buf)?));
    }
    let n = raw::get_u32(buf)? as usize;
    s.gauges.reserve(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        s.gauges.push((name, raw::get_u64(buf)? as i64));
    }
    let n = raw::get_u32(buf)? as usize;
    s.hists.reserve(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        s.hists.push((name, decode_hist(buf)?));
    }
    let n = raw::get_u32(buf)? as usize;
    s.purposes.reserve(n.min(1024));
    for _ in 0..n {
        let name = get_string(buf)?;
        let queries = raw::get_u64(buf)?;
        let rows = raw::get_u64(buf)?;
        s.purposes.push((name, PurposeCounters { queries, rows }));
    }
    let n = raw::get_u32(buf)? as usize;
    s.slow_queries.reserve(n.min(1024));
    for _ in 0..n {
        let kind = get_string(buf)?;
        let purpose = get_string(buf)?;
        let elapsed_micros = raw::get_u64(buf)?;
        s.slow_queries.push(SlowQuery {
            kind,
            purpose,
            elapsed_micros,
        });
    }
    Ok(s)
}

fn encode_hist(h: &HistogramSnapshot, out: &mut Vec<u8>) {
    raw::put_u64(out, h.sum_micros);
    raw::put_u64(out, h.max_micros);
    let nonzero = h.buckets.iter().filter(|b| **b != 0).count();
    raw::put_u32(out, nonzero as u32);
    for (i, b) in h.buckets.iter().enumerate() {
        if *b != 0 {
            out.push(i as u8);
            raw::put_u64(out, *b);
        }
    }
}

fn decode_hist(buf: &mut &[u8]) -> Result<HistogramSnapshot> {
    let mut h = HistogramSnapshot {
        sum_micros: raw::get_u64(buf)?,
        max_micros: raw::get_u64(buf)?,
        ..HistogramSnapshot::default()
    };
    let nonzero = raw::get_u32(buf)? as usize;
    for _ in 0..nonzero {
        let idx = take(buf, 1)?[0] as usize;
        let count = raw::get_u64(buf)?;
        let slot = h
            .buckets
            .get_mut(idx)
            .ok_or_else(|| Error::Corrupt(format!("histogram bucket index {idx} out of range")))?;
        *slot = count;
        h.count += count;
    }
    Ok(h)
}

/// Bytes of the `len` prefix in front of every frame.
const LEN_PREFIX: usize = 4;

/// An empty frame image: the `len` prefix reserved (zeroed) ahead of the
/// kind byte, so the encoder writes the payload in place and
/// [`write_payload`] fills the prefix in without a second copy.
fn frame_buf() -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&[0; LEN_PREFIX]);
    out
}

/// Write one frame (length prefix + payload) and flush it. A payload
/// that cannot be described by the u32 length prefix is refused with
/// [`Error::Capacity`] — truncating the prefix would desynchronize the
/// peer's framing.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<()> {
    write_payload(w, frame.encode())
}

/// Fill the reserved length prefix of an encoded frame, then hand prefix
/// and payload to the stream in **one** `write_all` and flush — the one
/// place framing is written. A single write matters on TCP: a prefix
/// sent on its own is a small segment, and with Nagle's algorithm the
/// payload behind it waits for the peer's delayed ACK (~40 ms).
fn write_payload(w: &mut impl Write, mut frame: Vec<u8>) -> Result<()> {
    let payload_len = frame.len() - LEN_PREFIX;
    let len = u32::try_from(payload_len)
        .map_err(|_| Error::Capacity(format!("frame of {payload_len} bytes overflows u32")))?;
    frame[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// [`write_frame`], but a frame larger than `max_frame_bytes` is
/// replaced on the wire by a typed `capacity` [`Frame::Error`] (the
/// peer's `read_frame` would refuse the oversized frame anyway and have
/// to drop the connection — a typed error keeps it alive and pairs with
/// the request). Returns whether the original frame fit.
pub fn write_frame_capped(w: &mut impl Write, frame: &Frame, max_frame_bytes: u32) -> Result<bool> {
    let encoded = frame.encode();
    let payload_len = encoded.len() - LEN_PREFIX;
    if payload_len as u64 > u64::from(max_frame_bytes) {
        let e = Error::Capacity(format!(
            "response frame of {payload_len} bytes exceeds the {max_frame_bytes}-byte limit; \
             narrow the query"
        ));
        write_frame(w, &Frame::error(&e))?;
        return Ok(false);
    }
    write_payload(w, encoded)?;
    Ok(true)
}

/// Read one frame. `Ok(None)` on a clean disconnect at a frame boundary.
/// A `len` above `max_frame_bytes` yields [`Error::Capacity`] *without
/// reading the body* — the caller should answer with a typed error and
/// close, since the stream position is no longer trustworthy.
pub fn read_frame(r: &mut impl Read, max_frame_bytes: u32) -> Result<Option<Frame>> {
    let Some(len) = read_len(r)? else {
        return Ok(None);
    };
    if len == 0 {
        return Err(Error::Corrupt("zero-length frame".into()));
    }
    if len > max_frame_bytes {
        return Err(Error::Capacity(format!(
            "frame of {len} bytes exceeds the {max_frame_bytes}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| truncated_as_corrupt(e, "frame body"))?;
    Frame::decode(&payload).map(Some)
}

/// Read the 4-byte length prefix; `Ok(None)` when the peer closed before
/// sending any of it (clean end of session).
fn read_len(r: &mut impl Read) -> Result<Option<u32>> {
    let mut buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut buf[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(Error::Corrupt("disconnect inside frame length".into()));
        }
        got += n;
    }
    Ok(Some(u32::from_le_bytes(buf)))
}

fn truncated_as_corrupt(e: std::io::Error, what: &str) -> Error {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        Error::Corrupt(format!("disconnect inside {what}"))
    } else {
        Error::Io(e)
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(Error::Corrupt(format!(
            "truncated frame: need {n} bytes, have {}",
            buf.len()
        )));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn get_string(buf: &mut &[u8]) -> Result<String> {
    let bytes = raw::get_bytes(buf)?;
    String::from_utf8(bytes).map_err(|_| Error::Corrupt("non-utf8 string in frame".into()))
}

/// The client's opening handshake frame.
pub fn client_hello(banner: &str) -> Frame {
    Frame::Hello {
        version: PROTOCOL_VERSION,
        banner: banner.to_string(),
    }
}

/// One frame of the SEGS replication sub-protocol: sealed WAL segments
/// shipped leader → follower over the same length-prefixed framing as
/// the SQL protocol (kinds 9–13, disjoint from the SQL kinds 1–8).
///
/// The exchange is lock-step per tick:
///
/// 1. follower opens with [`SegFrame::Hello`] — magic, version, its
///    shard count and per-shard applied LSN (0s on a fresh directory);
/// 2. leader answers [`SegFrame::Meta`] — its shard count (the
///    follower's layout must match or be empty) and per-shard end LSNs;
/// 3. each tick the leader sends zero or more [`SegFrame::Segment`]s
///    (whole sealed files the follower hasn't acked), then one
///    [`SegFrame::Progress`] as the tick barrier (doubling as an idle
///    heartbeat carrying the leader's live per-shard end LSNs), then
///    reads exactly one [`SegFrame::Ack`];
/// 4. the follower's `Ack` carries, per shard, the first LSN it has
///    **not** yet made durable (fsynced into its own layout) — the
///    leader's retention hold and lag gauge key off this — plus the
///    merged LSN below which it has applied ops to its serving engine.
#[derive(Debug, Clone, PartialEq)]
pub enum SegFrame {
    /// Follower → leader handshake: protocol version + the follower's
    /// shard count and per-shard "first LSN I don't have durable yet".
    Hello {
        version: u8,
        shards: u32,
        /// Per-shard resume point: the leader re-ships from here.
        durable: Vec<u64>,
    },
    /// Leader → follower handshake answer: authoritative shard count
    /// (a non-empty follower with a different count must resync from
    /// scratch) and the leader's current per-shard stream end LSNs.
    Meta {
        shards: u32,
        /// Per-shard `next_lsn` on the leader at handshake time.
        next_lsns: Vec<u64>,
        /// The leader's DDL journal (`CREATE TABLE …` statements in
        /// creation order) — the follower replays these through its own
        /// catalog so shipped records resolve to matching table ids.
        /// Snapshotted at handshake: a table created later reaches the
        /// follower on its next reconnect (the apply loop surfaces the
        /// unknown table id and the connection is re-dialed).
        ddl: Vec<String>,
    },
    /// One whole sealed segment file, verbatim (WSEG header included).
    Segment {
        shard: u32,
        seqno: u64,
        /// First LSN inside the file — redundant with the WSEG header,
        /// kept in the frame so the follower can sanity-check resume
        /// order without parsing the body first.
        first_lsn: u64,
        bytes: Vec<u8>,
    },
    /// Tick barrier / heartbeat (leader → follower): the leader's live
    /// per-shard stream end LSNs. On an idle shard this tells the
    /// follower its copy is complete up to `next_lsns[k]` even though
    /// no sealed segment covers the tail.
    Progress { next_lsns: Vec<u64> },
    /// Follower → leader, one per tick: per-shard durable frontier
    /// (first LSN not yet fsynced on the follower) and the merged LSN
    /// below which ops are applied to the serving engine.
    Ack { durable: Vec<u64>, applied: u64 },
}

impl SegFrame {
    /// The frame's wire image with its `len` prefix still unfilled (see
    /// [`frame_buf`]).
    fn encode(&self) -> Vec<u8> {
        let mut out = frame_buf();
        let put_lsns = |out: &mut Vec<u8>, lsns: &[u64]| {
            raw::put_u32(out, lsns.len() as u32);
            for l in lsns {
                raw::put_u64(out, *l);
            }
        };
        match self {
            SegFrame::Hello {
                version,
                shards,
                durable,
            } => {
                out.push(KIND_SEG_HELLO);
                out.extend_from_slice(&MAGIC);
                out.push(*version);
                raw::put_u32(&mut out, *shards);
                put_lsns(&mut out, durable);
            }
            SegFrame::Meta {
                shards,
                next_lsns,
                ddl,
            } => {
                out.push(KIND_SEG_META);
                raw::put_u32(&mut out, *shards);
                put_lsns(&mut out, next_lsns);
                raw::put_u32(&mut out, ddl.len() as u32);
                for stmt in ddl {
                    raw::put_bytes(&mut out, stmt.as_bytes());
                }
            }
            SegFrame::Segment {
                shard,
                seqno,
                first_lsn,
                bytes,
            } => {
                out.push(KIND_SEG_SEGMENT);
                raw::put_u32(&mut out, *shard);
                raw::put_u64(&mut out, *seqno);
                raw::put_u64(&mut out, *first_lsn);
                raw::put_bytes(&mut out, bytes);
            }
            SegFrame::Progress { next_lsns } => {
                out.push(KIND_SEG_PROGRESS);
                put_lsns(&mut out, next_lsns);
            }
            SegFrame::Ack { durable, applied } => {
                out.push(KIND_SEG_ACK);
                put_lsns(&mut out, durable);
                raw::put_u64(&mut out, *applied);
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<SegFrame> {
        let (&kind, mut body) = payload
            .split_first()
            .ok_or_else(|| Error::Corrupt("empty frame".into()))?;
        let get_lsns = |buf: &mut &[u8]| -> Result<Vec<u64>> {
            let n = raw::get_u32(buf)? as usize;
            let mut out = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                out.push(raw::get_u64(buf)?);
            }
            Ok(out)
        };
        let frame = match kind {
            KIND_SEG_HELLO => {
                let magic: Vec<u8> = take(&mut body, 4)?.to_vec();
                if magic != MAGIC {
                    return Err(Error::Corrupt("bad replication handshake magic".into()));
                }
                let version = take(&mut body, 1)?[0];
                let shards = raw::get_u32(&mut body)?;
                SegFrame::Hello {
                    version,
                    shards,
                    durable: get_lsns(&mut body)?,
                }
            }
            KIND_SEG_META => {
                let shards = raw::get_u32(&mut body)?;
                let next_lsns = get_lsns(&mut body)?;
                let n = raw::get_u32(&mut body)? as usize;
                let mut ddl = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ddl.push(get_string(&mut body)?);
                }
                SegFrame::Meta {
                    shards,
                    next_lsns,
                    ddl,
                }
            }
            KIND_SEG_SEGMENT => SegFrame::Segment {
                shard: raw::get_u32(&mut body)?,
                seqno: raw::get_u64(&mut body)?,
                first_lsn: raw::get_u64(&mut body)?,
                bytes: raw::get_bytes(&mut body)?,
            },
            KIND_SEG_PROGRESS => SegFrame::Progress {
                next_lsns: get_lsns(&mut body)?,
            },
            KIND_SEG_ACK => SegFrame::Ack {
                durable: get_lsns(&mut body)?,
                applied: raw::get_u64(&mut body)?,
            },
            other => {
                return Err(Error::Corrupt(format!(
                    "unknown replication frame kind {other}"
                )))
            }
        };
        if !body.is_empty() {
            return Err(Error::Corrupt(format!(
                "{} trailing bytes after replication frame",
                body.len()
            )));
        }
        Ok(frame)
    }
}

/// Write one SEGS frame (length prefix + payload) and flush it.
pub fn write_seg_frame(w: &mut impl Write, frame: &SegFrame) -> Result<()> {
    write_payload(w, frame.encode())
}

/// Read one SEGS frame; `Ok(None)` on a clean disconnect at a frame
/// boundary. Same framing and size discipline as [`read_frame`].
pub fn read_seg_frame(r: &mut impl Read, max_frame_bytes: u32) -> Result<Option<SegFrame>> {
    let Some(len) = read_len(r)? else {
        return Ok(None);
    };
    if len == 0 {
        return Err(Error::Corrupt("zero-length frame".into()));
    }
    if len > max_frame_bytes {
        return Err(Error::Capacity(format!(
            "replication frame of {len} bytes exceeds the {max_frame_bytes}-byte limit"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| truncated_as_corrupt(e, "replication frame body"))?;
    SegFrame::decode(&payload).map(Some)
}

/// The follower's opening SEGS handshake frame.
pub fn seg_hello(shards: u32, durable: Vec<u64>) -> SegFrame {
    SegFrame::Hello {
        version: PROTOCOL_VERSION,
        shards,
        durable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instant_common::Value;

    fn round_trip(frame: Frame) -> Frame {
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut cursor = wire.as_slice();
        let back = read_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert!(cursor.is_empty(), "frame fully consumed");
        back
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            client_hello("test-client"),
            Frame::Query {
                sql: "SELECT * FROM person".into(),
            },
            Frame::ResultSet(QueryOutput::TableCreated("person".into())),
            Frame::ResultSet(QueryOutput::Inserted(3)),
            Frame::ResultSet(QueryOutput::Deleted(0)),
            Frame::ResultSet(QueryOutput::PurposeDeclared("STAT".into())),
            Frame::ResultSet(QueryOutput::Checkpointed),
            Frame::ResultSet(QueryOutput::Rows(QueryResult {
                columns: vec!["id".into(), "location".into()],
                rows: vec![
                    vec![Value::Int(1), Value::Str("Paris".into())],
                    vec![Value::Int(2), Value::Removed],
                ],
                plan: "scan(person)".into(),
            })),
            Frame::error(&Error::Parse("unexpected token".into())),
            Frame::Ping,
            Frame::Pong,
            Frame::Close,
            Frame::ResultSet(QueryOutput::Stats(Box::new(sample_snapshot()))),
            Frame::Stats(Box::new(sample_snapshot())),
            Frame::Stats(Box::default()),
        ];
        for f in frames {
            assert_eq!(round_trip(f.clone()), f, "{f:?}");
        }
    }

    fn sample_snapshot() -> StatsSnapshot {
        let mut h = HistogramSnapshot::default();
        h.buckets[0] = 1;
        h.buckets[7] = 3;
        h.buckets[63] = 2;
        h.count = 6;
        h.sum_micros = 5_000;
        h.max_micros = u64::MAX;
        let mut s = StatsSnapshot::default();
        s.counters.push(("wal.fsyncs".into(), 42));
        s.counters.push(("server.queries".into(), u64::MAX));
        s.gauges.push(("degradation.overdue_lag_us".into(), 12_345));
        s.gauges.push(("clock.skew_us".into(), -7)); // negative survives
        s.hists.push(("commit.ack".into(), h));
        s.purposes.push((
            "stat".into(),
            PurposeCounters {
                queries: 9,
                rows: 100,
            },
        ));
        s.slow_queries.push(SlowQuery {
            kind: "select".into(),
            purpose: "(none)".into(),
            elapsed_micros: 999,
        });
        s
    }

    #[test]
    fn stats_snapshot_codec_reconstructs_derived_count() {
        let snap = sample_snapshot();
        let Frame::Stats(back) = round_trip(Frame::Stats(Box::new(snap.clone()))) else {
            panic!("expected stats frame");
        };
        // The sparse codec does not ship `count`; decode re-derives it
        // from the buckets, so it must match the original exactly.
        let h = back.hist("commit.ack").expect("hist survived");
        assert_eq!(h.count, 6);
        assert_eq!(h.p50(), snap.hist("commit.ack").unwrap().p50());
        assert_eq!(back.gauge("clock.skew_us"), Some(-7));
        assert_eq!(back.counter("server.queries"), Some(u64::MAX));
    }

    #[test]
    fn corrupt_hist_bucket_index_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Stats(Box::new(sample_snapshot()))).unwrap();
        // The first bucket index byte lives right after the fixed-size
        // header fields; find and corrupt it via a targeted re-encode.
        let mut payload = vec![KIND_STATS];
        let mut s = StatsSnapshot::default();
        let mut h = HistogramSnapshot::default();
        h.buckets[1] = 5;
        h.count = 5;
        s.hists.push(("x".into(), h));
        encode_snapshot(&s, &mut payload);
        // From the end: two empty-section u32 counts (purposes, slow) =
        // 8 bytes, the bucket count u64 = 8 bytes, then the index byte.
        let idx_pos = payload.len() - 17;
        assert_eq!(payload[idx_pos], 1);
        payload[idx_pos] = 200; // out of range
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        let err = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn error_frame_preserves_type() {
        let e = Error::ServerBusy("queue full".into());
        let Frame::Error { class, message } = round_trip(Frame::error(&e)) else {
            panic!("expected error frame")
        };
        let back = Frame::to_engine_error(&class, &message);
        assert!(matches!(back, Error::ServerBusy(_)), "{back:?}");
        assert!(back.to_string().contains("queue full"));
    }

    #[test]
    fn oversized_frame_rejected_before_body_read() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        // No body at all: the length alone must condemn the frame.
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, Error::Capacity(_)), "{err:?}");
    }

    #[test]
    fn clean_disconnect_is_none_and_partial_is_corrupt() {
        assert!(read_frame(&mut (&[] as &[u8]), 1024).unwrap().is_none());
        let err = read_frame(&mut (&[1u8, 2][..]), 1024).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ping).unwrap();
        wire.truncate(wire.len() - 1);
        // An empty-body frame can't be truncated below its kind byte; use
        // a query instead for a mid-body cut.
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Query {
                sql: "SELECT 1".into(),
            },
        )
        .unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn seg_frames_round_trip() {
        let frames = vec![
            seg_hello(4, vec![0, 7, 19, 3]),
            SegFrame::Meta {
                shards: 4,
                next_lsns: vec![10, 11, 12, u64::MAX],
                ddl: vec![
                    "CREATE TABLE person (id INT, loc TEXT DEGRADE location_gt)".into(),
                    "CREATE TABLE audit (id INT)".into(),
                ],
            },
            SegFrame::Meta {
                shards: 1,
                next_lsns: vec![0],
                ddl: Vec::new(),
            },
            SegFrame::Segment {
                shard: 2,
                seqno: 5,
                first_lsn: 4096,
                bytes: b"WSEG-and-then-some-frames".to_vec(),
            },
            SegFrame::Segment {
                shard: 0,
                seqno: 0,
                first_lsn: 0,
                bytes: Vec::new(),
            },
            SegFrame::Progress {
                next_lsns: vec![100, 200],
            },
            SegFrame::Ack {
                durable: vec![90, 180],
                applied: 170,
            },
        ];
        for f in frames {
            let mut wire = Vec::new();
            write_seg_frame(&mut wire, &f).unwrap();
            let mut cursor = wire.as_slice();
            let back = read_seg_frame(&mut cursor, DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert!(cursor.is_empty(), "frame fully consumed");
            assert_eq!(back, f, "{f:?}");
        }
    }

    #[test]
    fn seg_and_sql_kind_spaces_are_disjoint() {
        // A SQL frame read by the replication reader (and vice versa)
        // must fail as an unknown kind, not silently mis-decode.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ping).unwrap();
        let err = read_seg_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");

        let mut wire = Vec::new();
        write_seg_frame(&mut wire, &SegFrame::Progress { next_lsns: vec![1] }).unwrap();
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err:?}");
        // Clean disconnect is still None on the replication reader.
        assert!(read_seg_frame(&mut (&[] as &[u8]), 1024).unwrap().is_none());
    }

    /// A `Write` that counts the calls that reach it.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_is_one_write() {
        let frames = vec![
            client_hello("one-write"),
            Frame::Query {
                sql: "SELECT * FROM person".into(),
            },
            Frame::ResultSet(QueryOutput::Inserted(1)),
            Frame::Ping,
            Frame::Stats(Box::new(sample_snapshot())),
        ];
        for f in frames {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &f).unwrap();
            assert_eq!(w.writes, 1, "{f:?}");
            let back = read_frame(&mut w.bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
            assert_eq!(back, Some(f));
        }
        // The capped path, on both the fitting and the replaced branch.
        let rows = Frame::ResultSet(QueryOutput::Deleted(7));
        let mut w = CountingWriter::default();
        assert!(write_frame_capped(&mut w, &rows, 1024).unwrap());
        assert_eq!(w.writes, 1);
        let mut w = CountingWriter::default();
        assert!(
            !write_frame_capped(&mut w, &Frame::Stats(Box::new(sample_snapshot())), 8).unwrap()
        );
        assert_eq!(w.writes, 1);
        // Replication frames share the framing.
        let seg = SegFrame::Segment {
            shard: 1,
            seqno: 2,
            first_lsn: 3,
            bytes: vec![0xAB; 10_000],
        };
        let mut w = CountingWriter::default();
        write_seg_frame(&mut w, &seg).unwrap();
        assert_eq!(w.writes, 1);
        let back = read_seg_frame(&mut w.bytes.as_slice(), DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(back, Some(seg));
    }

    #[test]
    fn bad_magic_and_unknown_kind_rejected() {
        let mut payload = vec![1u8]; // Hello kind
        payload.extend_from_slice(b"NOPE");
        payload.push(PROTOCOL_VERSION);
        raw::put_bytes(&mut payload, b"x");
        let mut wire = Vec::new();
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(&payload);
        assert!(read_frame(&mut wire.as_slice(), 1024).is_err());

        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(0xEE);
        assert!(read_frame(&mut wire.as_slice(), 1024).is_err());
    }
}
