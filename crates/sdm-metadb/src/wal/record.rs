//! WAL record encoding and decoding.
//!
//! Every record is one self-delimiting **frame**:
//!
//! ```text
//! [u32 len][u32 crc][payload]        (all integers little-endian)
//! payload = [u64 txid][u8 kind][kind-specific body]
//! ```
//!
//! `len` is the payload length and `crc` is CRC-32 (IEEE) over the
//! payload, so recovery can walk a byte stream frame by frame and stop
//! exactly at the first torn or corrupted record: a crash mid-append
//! leaves either a short frame (fewer than `len` bytes follow) or a
//! checksum mismatch, never a silently half-applied record.
//!
//! Record kinds are the shapes of `crate::change::Change`, encoded
//! forward: data records carry post-images (the rows an INSERT
//! appended, the replacement rows of an UPDATE, the positions a DELETE
//! removed), because recovery replays forward from a snapshot, while
//! the change log itself keeps the pre-images for in-memory `ROLLBACK`.
//! A DELETE that emptied its table is written as CLEAR. `Commit` and
//! `Abort` are transaction terminators: recovery applies a
//! transaction's buffered frames only when it sees the `Commit`.
//!
//! Encoding is borrow-based: `WalAppender::change` writes a frame
//! straight from the catalog's rows into a per-statement byte buffer,
//! and recovery applies each frame body straight from its bytes
//! (`Frame::apply`) — neither direction builds an intermediate
//! record.

use crate::catalog::Catalog;
use crate::change::Change;
use crate::error::{DbError, DbResult};
use crate::schema::{ColType, Column, Schema};
use crate::table::Row;
use crate::value::Value;

/// Record kinds (the `u8` after the txid).
const KIND_APPEND: u8 = 1;
const KIND_UPDATE: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_CLEAR: u8 = 4;
const KIND_CREATE_TABLE: u8 = 5;
const KIND_DROP_TABLE: u8 = 6;
const KIND_CREATE_INDEX: u8 = 7;
const KIND_DROP_INDEX: u8 = 8;
pub(crate) const KIND_COMMIT: u8 = 9;
pub(crate) const KIND_ABORT: u8 = 10;

// ------------------------------------------------------------------ crc32

/// CRC-32 (IEEE 802.3) lookup table, built at compile time — no
/// dependency, no runtime init.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        // analyze:allow(panic-under-guard: index is masked to 0..=255 and the table has 256 entries)
        c = (c >> 8) ^ CRC_TABLE[((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

// --------------------------------------------------------------- encoding

/// Per-statement frame capture: the `Database` encodes one frame per
/// change the statement applied, then hands the filled buffer to the
/// shared WAL under the transaction guard — so frames of different
/// transactions never interleave in the log.
#[derive(Debug)]
pub struct WalAppender {
    txid: u64,
    buf: Vec<u8>,
    records: u64,
}

impl WalAppender {
    /// A fresh appender for transaction `txid`.
    pub(crate) fn new(txid: u64) -> Self {
        Self {
            txid,
            buf: Vec::new(),
            records: 0,
        }
    }

    /// The transaction id frames are stamped with.
    pub(crate) fn txid(&self) -> u64 {
        self.txid
    }

    /// How many frames have been appended.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Surrender the encoded frames.
    pub(crate) fn into_buf(self) -> Vec<u8> {
        self.buf
    }

    /// Open a frame: reserve the `[len][crc]` header and write the
    /// payload prefix. Returns the header offset for [`Self::finish`].
    fn begin(&mut self, kind: u8) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 8]);
        self.buf.extend_from_slice(&self.txid.to_le_bytes());
        self.buf.push(kind);
        at
    }

    /// Close the frame opened at `at`: patch `len` and `crc`.
    fn finish(&mut self, at: usize) {
        let len = (self.buf.len() - at - 8) as u32;
        // analyze:allow(panic-under-guard: begin() reserved 8 bytes at `at`, so the slice exists)
        let crc = crc32(&self.buf[at + 8..]);
        // analyze:allow(panic-under-guard: begin() reserved 8 bytes at `at`, so the slice exists)
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        // analyze:allow(panic-under-guard: begin() reserved 8 bytes at `at`, so the slice exists)
        self.buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        self.records += 1;
    }

    /// Encode one applied change forward. Names and positions come
    /// from the record; post-images come from `catalog`, the state the
    /// statement left — the caller still holds the catalog write guard,
    /// so that state is exactly what the change produced. A DELETE
    /// that emptied its table is written as CLEAR.
    pub(crate) fn change(&mut self, change: &Change, catalog: &Catalog) {
        let live = |name: &str| {
            catalog
                .get(name)
                // analyze:allow(unwrap: the statement applied this change to a live table under the write guard still held)
                .expect("a logged change names a live table")
        };
        let at;
        match change {
            Change::Append { table, n } => {
                let rows = live(table).rows();
                at = self.begin(KIND_APPEND);
                put_str(&mut self.buf, table);
                put_u32(&mut self.buf, *n as u32);
                // analyze:allow(panic-under-guard: the last `n` rows are the ones this change appended)
                for row in &rows[rows.len() - n..] {
                    put_row(&mut self.buf, row);
                }
            }
            Change::Update { table, old } => {
                let rows = live(table).rows();
                at = self.begin(KIND_UPDATE);
                put_str(&mut self.buf, table);
                put_u32(&mut self.buf, old.len() as u32);
                for (pos, _) in old {
                    put_u64(&mut self.buf, *pos as u64);
                    // analyze:allow(panic-under-guard: an UPDATE rewrites rows in place, so every logged position is live)
                    put_row(&mut self.buf, &rows[*pos]);
                }
            }
            Change::Delete { table, .. } if live(table).is_empty() => {
                at = self.begin(KIND_CLEAR);
                put_str(&mut self.buf, table);
            }
            Change::Delete { table, removed } => {
                at = self.begin(KIND_DELETE);
                put_str(&mut self.buf, table);
                put_u32(&mut self.buf, removed.len() as u32);
                for (pos, _) in removed {
                    put_u64(&mut self.buf, *pos as u64);
                }
            }
            Change::CreateTable { name } => {
                let schema = &live(name).schema;
                at = self.begin(KIND_CREATE_TABLE);
                put_str(&mut self.buf, name);
                put_u32(&mut self.buf, schema.columns.len() as u32);
                for col in &schema.columns {
                    put_str(&mut self.buf, &col.name);
                    self.buf.push(match col.ctype {
                        ColType::Int => 0,
                        ColType::Double => 1,
                        ColType::Text => 2,
                    });
                }
            }
            Change::DropTable { name, .. } => {
                at = self.begin(KIND_DROP_TABLE);
                put_str(&mut self.buf, name);
            }
            Change::CreateIndex { table, index } => {
                let def = live(table)
                    .indexes()
                    .iter()
                    .find(|d| d.name.eq_ignore_ascii_case(index))
                    // analyze:allow(unwrap: the statement created this index under the write guard still held)
                    .expect("a logged CREATE INDEX names a live index");
                at = self.begin(KIND_CREATE_INDEX);
                put_str(&mut self.buf, table);
                put_str(&mut self.buf, index);
                put_u32(&mut self.buf, def.columns.len() as u32);
                for c in &def.columns {
                    put_str(&mut self.buf, c);
                }
            }
            Change::DropIndex { table, def } => {
                at = self.begin(KIND_DROP_INDEX);
                put_str(&mut self.buf, table);
                put_str(&mut self.buf, &def.name);
            }
        }
        self.finish(at);
    }

    /// The transaction committed: everything before this frame is
    /// durable once the frame reaches disk.
    pub(crate) fn commit(&mut self) {
        let at = self.begin(KIND_COMMIT);
        self.finish(at);
    }

    /// The transaction rolled back: recovery discards its records.
    pub(crate) fn abort(&mut self) {
        let at = self.begin(KIND_ABORT);
        self.finish(at);
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.len() as u32);
    for v in row {
        match v {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Double(d) => {
                buf.push(2);
                buf.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                buf.push(3);
                put_str(buf, s);
            }
        }
    }
}

// --------------------------------------------------------------- decoding

/// One length- and CRC-valid frame: the transaction it belongs to, its
/// record kind, and the record body, still encoded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame<'a> {
    /// Stamping transaction id.
    pub txid: u64,
    /// Record kind (the `u8` after the txid).
    pub kind: u8,
    /// The kind-specific body.
    pub body: &'a [u8],
}

impl Frame<'_> {
    /// Apply this frame to `catalog`, decoding the body straight from
    /// its bytes (recovery calls this once the transaction's COMMIT is
    /// seen). The log was written by the executor that produced the
    /// state being rebuilt, so every name and position resolves; a body
    /// that does not parse or apply means a corrupt-but-CRC-valid log,
    /// and surfaces as an open error naming the transaction.
    pub(crate) fn apply(&self, catalog: &mut Catalog) -> DbResult<()> {
        self.apply_body(catalog).map_err(|e| {
            let why = match e {
                DbError::Persist(m) => m,
                other => other.to_string(),
            };
            DbError::Persist(format!(
                "wal replay: tx {}, record kind {}: {why}",
                self.txid, self.kind
            ))
        })
    }

    fn apply_body(&self, catalog: &mut Catalog) -> DbResult<()> {
        let mut cur = Cursor {
            data: self.body,
            pos: 0,
        };
        match self.kind {
            KIND_APPEND => {
                let t = catalog.get_mut(&cur.string()?)?;
                for _ in 0..cur.u32()? {
                    t.insert(cur.row()?)?;
                }
            }
            KIND_UPDATE => {
                let t = catalog.get_mut(&cur.string()?)?;
                let news = (0..cur.u32()?)
                    .map(|_| {
                        let pos = cur.position(t.len())?;
                        Ok((pos, t.schema.check_row(cur.row()?)?))
                    })
                    .collect::<DbResult<Vec<_>>>()?;
                t.apply_updates(news);
            }
            KIND_DELETE => {
                let t = catalog.get_mut(&cur.string()?)?;
                let positions = (0..cur.u32()?)
                    .map(|_| cur.position(t.len()))
                    .collect::<DbResult<Vec<_>>>()?;
                if !positions.windows(2).all(|w| w[0] < w[1]) {
                    return Err(malformed("DELETE positions are not ascending"));
                }
                t.delete_at(&positions);
            }
            KIND_CLEAR => {
                catalog.get_mut(&cur.string()?)?.clear();
            }
            KIND_CREATE_TABLE => {
                let name = cur.string()?;
                let columns = (0..cur.u32()?)
                    .map(|_| {
                        let name = cur.string()?;
                        let ctype = match cur.u8()? {
                            0 => ColType::Int,
                            1 => ColType::Double,
                            2 => ColType::Text,
                            _ => return Err(malformed("unknown column type")),
                        };
                        Ok(Column { name, ctype })
                    })
                    .collect::<DbResult<Vec<_>>>()?;
                catalog.create_table(&name, Schema::new(columns)?, false)?;
            }
            KIND_DROP_TABLE => {
                catalog.drop_table(&cur.string()?)?;
            }
            KIND_CREATE_INDEX => {
                let table = cur.string()?;
                let index = cur.string()?;
                let columns = (0..cur.u32()?)
                    .map(|_| cur.string())
                    .collect::<DbResult<Vec<_>>>()?;
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                catalog.get_mut(&table)?.create_index(&index, &cols)?;
            }
            KIND_DROP_INDEX => {
                let table = cur.string()?;
                catalog.get_mut(&table)?.drop_index(&cur.string()?)?;
            }
            _ => return Err(malformed("unknown record kind")),
        }
        // The encoder writes bodies exactly: trailing bytes mean the
        // frame is not what it claims to be.
        if cur.pos != self.body.len() {
            return Err(malformed("trailing bytes after the record"));
        }
        Ok(())
    }
}

fn malformed(what: &str) -> DbError {
    DbError::Persist(format!("malformed record: {what}"))
}

/// Walk `bytes` frame by frame. Returns the frames plus the number of
/// bytes they occupy — walking stops at the first short frame or
/// checksum mismatch (the torn tail a crash mid-append leaves behind),
/// and the caller discards everything from that offset on. A CRC-valid
/// payload too short to hold its `[txid][kind]` header is an error, not
/// a torn tail: no crash writes one.
pub fn decode_all(bytes: &[u8]) -> DbResult<(Vec<Frame<'_>>, usize)> {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let crc = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        let Some(end) = (at + 8).checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break; // short frame: torn tail
        }
        let payload = &bytes[at + 8..end];
        if crc32(payload) != crc {
            break; // corrupted frame
        }
        let mut cur = Cursor {
            data: payload,
            pos: 0,
        };
        let (Ok(txid), Ok(kind)) = (cur.u64(), cur.u8()) else {
            return Err(DbError::Persist(format!(
                "wal: CRC-valid frame at byte {at} is too short for its header"
            )));
        };
        frames.push(Frame {
            txid,
            kind,
            body: &payload[cur.pos..],
        });
        at = end;
    }
    Ok((frames, at))
}

/// Bounds-checked little-endian reader over a frame payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> DbResult<&[u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.data.len())
            .ok_or_else(|| malformed("body ends early"))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> DbResult<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> DbResult<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> DbResult<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// A row position, which must be below `len`.
    fn position(&mut self, len: usize) -> DbResult<usize> {
        let pos = self.u64()?;
        usize::try_from(pos)
            .ok()
            .filter(|&p| p < len)
            .ok_or_else(|| malformed("row position past the table end"))
    }

    fn string(&mut self) -> DbResult<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("name is not UTF-8"))
    }

    fn row(&mut self) -> DbResult<Row> {
        (0..self.u32()?)
            .map(|_| {
                Ok(match self.u8()? {
                    0 => Value::Null,
                    1 => Value::Int(self.u64()? as i64),
                    2 => Value::Double(f64::from_bits(self.u64()?)),
                    3 => Value::Text(self.string()?),
                    _ => return Err(malformed("unknown value tag")),
                })
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Execute one mutating `sql` against `catalog` and encode what it
    /// applied: the `Database` mutation path, minus the locks.
    pub(crate) fn encode_sql(catalog: &mut Catalog, app: &mut WalAppender, sql: &str) {
        let mut log = crate::change::ChangeLog::default();
        let stmt = crate::sql::parse(sql).unwrap();
        let mut stats = crate::exec::DbStats::default();
        crate::exec::execute_mutation(catalog, &stmt, &[], &mut stats, &mut log, None).unwrap();
        for change in log.records() {
            app.change(change, catalog);
        }
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_kind_round_trips() {
        let mut src = Catalog::new();
        let mut w = WalAppender::new(42);
        for sql in [
            "CREATE TABLE t (a INT, b TEXT)",
            "INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, 'z'), (4, NULL)",
            "UPDATE t SET a = 9 WHERE b = 'x'",
            "DELETE FROM t WHERE a = 3",
            "CREATE INDEX ta ON t (a, b)",
            "DROP INDEX ta ON t",
            "CREATE INDEX tb ON t (b)",
            "CREATE TABLE u (d DOUBLE)",
            "INSERT INTO u VALUES (2.5), (NULL)",
            "DELETE FROM u WHERE d IS NULL OR d > 0",
            "DROP TABLE u",
        ] {
            encode_sql(&mut src, &mut w, sql);
        }
        w.commit();
        w.abort();
        assert_eq!(w.records(), 13);
        let bytes = w.into_buf();
        let (frames, consumed) = decode_all(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        assert!(frames.iter().all(|f| f.txid == 42));
        let kinds: Vec<u8> = frames.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            [
                KIND_CREATE_TABLE,
                KIND_APPEND,
                KIND_UPDATE,
                KIND_DELETE,
                KIND_CREATE_INDEX,
                KIND_DROP_INDEX,
                KIND_CREATE_INDEX,
                KIND_CREATE_TABLE,
                KIND_APPEND,
                KIND_CLEAR, // the DELETE emptied `u`
                KIND_DROP_TABLE,
                KIND_COMMIT,
                KIND_ABORT,
            ]
        );
        // Applying the data frames rebuilds the source catalog exactly.
        let mut dst = Catalog::new();
        for f in &frames[..11] {
            f.apply(&mut dst).unwrap();
        }
        assert_eq!(dst.table_names(), src.table_names());
        let (t, want) = (dst.get("t").unwrap(), src.get("t").unwrap());
        assert_eq!(t.rows(), want.rows());
        assert_eq!(t.indexes(), want.indexes());
    }

    #[test]
    fn malformed_bodies_are_errors_naming_the_transaction() {
        let mut c = Catalog::new();
        let mut w = WalAppender::new(5);
        encode_sql(&mut c, &mut w, "CREATE TABLE t (a INT)");
        encode_sql(&mut c, &mut w, "INSERT INTO t VALUES (1)");
        encode_sql(&mut c, &mut w, "UPDATE t SET a = 2");
        let bytes = w.into_buf();
        let (frames, _) = decode_all(&bytes).unwrap();
        let (append, update) = (frames[1], frames[2]);
        let mut long = append.body.to_vec();
        long.push(0);
        let cases = [
            (update.body, update.kind), // names a row `t` does not have
            (append.body, 99),          // unknown kind
            (&append.body[..append.body.len() - 1], append.kind), // short body
            (&long[..], append.kind),   // trailing byte
        ];
        for (body, kind) in cases {
            // Only the CREATE TABLE has been applied: `t` is empty.
            let mut dst = Catalog::new();
            frames[0].apply(&mut dst).unwrap();
            let bad = Frame {
                body,
                kind,
                ..append
            };
            match bad.apply(&mut dst) {
                Err(DbError::Persist(m)) => assert!(m.contains("tx 5"), "{m}"),
                other => panic!("expected an attributed error, got {other:?}"),
            }
        }
        // A CRC-valid payload without room for its header fails the walk.
        let mut tiny = Vec::new();
        tiny.extend_from_slice(&3u32.to_le_bytes());
        tiny.extend_from_slice(&crc32(b"abc").to_le_bytes());
        tiny.extend_from_slice(b"abc");
        assert!(decode_all(&tiny).is_err());
    }

    #[test]
    fn truncation_at_every_byte_discards_only_the_tail() {
        let mut c = Catalog::new();
        let mut w = WalAppender::new(7);
        encode_sql(&mut c, &mut w, "CREATE TABLE t (a INT)");
        encode_sql(&mut c, &mut w, "INSERT INTO t VALUES (1)");
        w.commit();
        encode_sql(&mut c, &mut w, "INSERT INTO t VALUES (2)");
        w.commit();
        let bytes = w.into_buf();
        let (all, _) = decode_all(&bytes).unwrap();
        assert_eq!(all.len(), 5);
        for cut in 0..bytes.len() {
            let (frames, consumed) = decode_all(&bytes[..cut]).unwrap();
            assert!(consumed <= cut);
            // Every decoded frame is one of the originally encoded
            // prefix frames, in order.
            assert_eq!(frames[..], all[..frames.len()]);
        }
    }

    #[test]
    fn bitflip_anywhere_is_detected() {
        let mut c = Catalog::new();
        let mut w = WalAppender::new(7);
        encode_sql(&mut c, &mut w, "CREATE TABLE t (a TEXT)");
        encode_sql(&mut c, &mut w, "INSERT INTO t VALUES ('payload')");
        w.commit();
        let bytes = w.into_buf();
        let (clean, _) = decode_all(&bytes).unwrap();
        assert_eq!(clean.len(), 3);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let (frames, _) = decode_all(&corrupt).unwrap();
            // A flipped byte may truncate the stream early but must
            // never yield a frame that differs from the originals.
            for (f, c) in frames.iter().zip(&clean) {
                if f != c {
                    // The flip landed in the length prefix and resynced
                    // onto a byte range that still checksums? CRC-32
                    // makes that astronomically unlikely; treat it as a
                    // failure.
                    panic!("corrupted frame decoded as valid: {f:?}");
                }
            }
        }
    }

    #[test]
    fn empty_stream_decodes_empty() {
        let (frames, consumed) = decode_all(&[]).unwrap();
        assert!(frames.is_empty());
        assert_eq!(consumed, 0);
    }
}
