//! The write-ahead journal: an append-only file of length-prefixed,
//! CRC-32-checksummed update records.
//!
//! ```text
//! file   := magic(8) record*
//! record := len(u32 LE) crc32(u32 LE) payload(len bytes)
//! ```
//!
//! The checksum covers the payload. On open (and on replay) the file is
//! scanned front to back; the first record whose bytes are incomplete
//! marks a *torn tail* — the remainder is ignored and, on open-for-append,
//! truncated, because a crash mid-append can only damage the suffix of an
//! append-only file. A record whose bytes are all present but whose
//! checksum does not match is **corruption**, not tearing, and is
//! reported as a hard error rather than silently dropped.

use crate::codec::{Decoder, Encoder};
use crate::crc32::crc32;
use crate::{DurabilityError, FsyncPolicy};
use rdf_model::{Term, Triple};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use webreason_failpoints::fail_point_io;

/// File magic: "WRJNL" + format version 1.
pub const JOURNAL_MAGIC: [u8; 8] = *b"WRJNL\x01\0\0";

/// One journaled store operation.
///
/// Dictionary growth rides along with the operation that caused it:
/// `new_terms` lists every term interned since the previous record, in
/// interning order. Ids are not stored — the replay dictionary re-interns
/// the terms in order and necessarily assigns the same sequential ids —
/// so records stay valid independent of absolute id values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A batch insertion into the base graph.
    InsertBatch {
        /// Terms interned since the previous record, in interning order.
        new_terms: Vec<Term>,
        /// The inserted triples, as dictionary ids.
        triples: Vec<Triple>,
    },
    /// A batch deletion from the base graph.
    DeleteBatch {
        /// Terms interned since the previous record (deletions may intern
        /// terms while *resolving* ids even when nothing is removed).
        new_terms: Vec<Term>,
        /// The deleted triples, as dictionary ids.
        triples: Vec<Triple>,
    },
    /// The store switched reasoning strategy (by display name).
    SetConfig {
        /// `ReasoningConfig::name()` of the new strategy.
        name: String,
    },
    /// A worker-thread count, which stores no longer have. Journals
    /// written before the count was removed hold it (`create` appended
    /// one); it still decodes so they replay, and replay ignores it.
    SetThreads {
        /// The thread count.
        threads: u32,
    },
    /// A checkpoint covering every record before index `seq` was written
    /// successfully (informational; recovery works without it).
    CheckpointMark {
        /// Journal records reflected in the checkpoint.
        seq: u64,
    },
    /// A whole update script as one atomic record: an *ordered* mix of
    /// inserts and deletes that commits (and replays) all-or-nothing.
    /// Order matters — `insert` then `delete` of the same triple nets to
    /// absent. Older journals keep replaying through `InsertBatch` /
    /// `DeleteBatch`; this variant only appears once a writer groups a
    /// script into a single append.
    UpdateScript {
        /// Terms interned since the previous record, in interning order.
        new_terms: Vec<Term>,
        /// The script's operations, in request order.
        ops: Vec<ScriptedOp>,
    },
}

/// One operation of a [`JournalRecord::UpdateScript`], over encoded ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptedOp {
    /// Insert the triple into the base graph.
    Insert(Triple),
    /// Delete the triple from the base graph (no-op if absent).
    Delete(Triple),
}

impl JournalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            JournalRecord::InsertBatch { new_terms, triples } => {
                e.u8(1);
                encode_batch(&mut e, new_terms, triples);
            }
            JournalRecord::DeleteBatch { new_terms, triples } => {
                e.u8(2);
                encode_batch(&mut e, new_terms, triples);
            }
            JournalRecord::SetConfig { name } => {
                e.u8(3);
                e.str(name);
            }
            JournalRecord::SetThreads { threads } => {
                e.u8(4);
                e.u32(*threads);
            }
            JournalRecord::CheckpointMark { seq } => {
                e.u8(5);
                e.u64(*seq);
            }
            JournalRecord::UpdateScript { new_terms, ops } => {
                e.u8(6);
                e.u32(new_terms.len() as u32);
                for t in new_terms {
                    e.term(t);
                }
                e.u32(ops.len() as u32);
                for op in ops {
                    match op {
                        ScriptedOp::Insert(t) => {
                            e.u8(0);
                            e.triple(t);
                        }
                        ScriptedOp::Delete(t) => {
                            e.u8(1);
                            e.triple(t);
                        }
                    }
                }
            }
        }
        e.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<JournalRecord, crate::codec::CodecError> {
        let mut d = Decoder::new(payload);
        let rec = match d.u8("record tag")? {
            1 => {
                let (new_terms, triples) = decode_batch(&mut d)?;
                JournalRecord::InsertBatch { new_terms, triples }
            }
            2 => {
                let (new_terms, triples) = decode_batch(&mut d)?;
                JournalRecord::DeleteBatch { new_terms, triples }
            }
            3 => JournalRecord::SetConfig {
                name: d.str("config name")?.to_owned(),
            },
            4 => JournalRecord::SetThreads {
                threads: d.u32("thread count")?,
            },
            5 => JournalRecord::CheckpointMark {
                seq: d.u64("checkpoint seq")?,
            },
            6 => {
                let n_terms = d.u32("term count")? as usize;
                let mut new_terms = Vec::with_capacity(n_terms.min(1 << 16));
                for _ in 0..n_terms {
                    new_terms.push(d.term()?);
                }
                let n_ops = d.u32("op count")? as usize;
                let mut ops = Vec::with_capacity(n_ops.min(1 << 16));
                for _ in 0..n_ops {
                    let op = match d.u8("op kind")? {
                        0 => ScriptedOp::Insert(d.triple()?),
                        1 => ScriptedOp::Delete(d.triple()?),
                        _ => {
                            return Err(crate::codec::CodecError {
                                offset: d.offset().saturating_sub(1),
                                what: "op kind",
                            })
                        }
                    };
                    ops.push(op);
                }
                JournalRecord::UpdateScript { new_terms, ops }
            }
            _ => {
                return Err(crate::codec::CodecError {
                    offset: 0,
                    what: "record tag",
                })
            }
        };
        if !d.is_exhausted() {
            return Err(crate::codec::CodecError {
                offset: d.offset(),
                what: "trailing bytes after record",
            });
        }
        Ok(rec)
    }
}

fn encode_batch(e: &mut Encoder, new_terms: &[Term], triples: &[Triple]) {
    e.u32(new_terms.len() as u32);
    for t in new_terms {
        e.term(t);
    }
    e.u32(triples.len() as u32);
    for t in triples {
        e.triple(t);
    }
}

fn decode_batch(d: &mut Decoder<'_>) -> Result<(Vec<Term>, Vec<Triple>), crate::codec::CodecError> {
    let n_terms = d.u32("term count")? as usize;
    let mut new_terms = Vec::with_capacity(n_terms.min(1 << 16));
    for _ in 0..n_terms {
        new_terms.push(d.term()?);
    }
    let n_triples = d.u32("triple count")? as usize;
    let mut triples = Vec::with_capacity(n_triples.min(1 << 16));
    for _ in 0..n_triples {
        triples.push(d.triple()?);
    }
    Ok((new_terms, triples))
}

/// The result of scanning a journal file front to back.
#[derive(Debug)]
pub struct Replay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the intact prefix (magic + whole records).
    pub valid_len: u64,
    /// Bytes of torn tail after the intact prefix (0 = the file ends on a
    /// record boundary).
    pub torn_bytes: u64,
}

/// An open, append-position journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    seq: u64,
    fsync: FsyncPolicy,
}

impl Journal {
    /// Opens (or creates) the journal at `path` for appending. An existing
    /// file is scanned: a torn tail is truncated away so new appends start
    /// on a record boundary; corrupt (checksum-failing) records are a hard
    /// error.
    pub fn open(path: impl Into<PathBuf>, fsync: FsyncPolicy) -> Result<Journal, DurabilityError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        if len == 0 {
            file.write_all(&JOURNAL_MAGIC)?;
            file.sync_data()?;
            return Ok(Journal {
                file,
                path,
                seq: 0,
                fsync,
            });
        }
        let replay = Self::replay(&path)?;
        if replay.torn_bytes > 0 {
            file.set_len(replay.valid_len)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(replay.valid_len))?;
        Ok(Journal {
            file,
            path,
            seq: replay.records.len() as u64,
            fsync,
        })
    }

    /// Scans the journal at `path` without opening it for writing. A
    /// missing file reads as an empty journal.
    pub fn replay(path: impl AsRef<Path>) -> Result<Replay, DurabilityError> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Replay {
                    records: Vec::new(),
                    valid_len: 0,
                    torn_bytes: 0,
                })
            }
            Err(e) => return Err(e.into()),
        };
        let corrupt = |offset: u64, what: &str| DurabilityError::Corrupt {
            path: path.to_owned(),
            offset,
            what: what.to_owned(),
        };
        if bytes.len() < JOURNAL_MAGIC.len() {
            // Shorter than the magic: a torn creation; nothing recoverable.
            return Ok(Replay {
                records: Vec::new(),
                valid_len: 0,
                torn_bytes: bytes.len() as u64,
            });
        }
        if bytes[..8] != JOURNAL_MAGIC {
            return Err(corrupt(0, "journal magic/version mismatch"));
        }
        let mut records = Vec::new();
        let mut pos = JOURNAL_MAGIC.len();
        loop {
            let remaining = bytes.len() - pos;
            if remaining == 0 {
                return Ok(Replay {
                    records,
                    valid_len: pos as u64,
                    torn_bytes: 0,
                });
            }
            if remaining < 8 {
                // incomplete header: torn tail
                return Ok(Replay {
                    records,
                    valid_len: pos as u64,
                    torn_bytes: remaining as u64,
                });
            }
            let len =
                u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
                    as usize;
            let crc = u32::from_le_bytes([
                bytes[pos + 4],
                bytes[pos + 5],
                bytes[pos + 6],
                bytes[pos + 7],
            ]);
            if remaining - 8 < len {
                // incomplete payload: torn tail
                return Ok(Replay {
                    records,
                    valid_len: pos as u64,
                    torn_bytes: remaining as u64,
                });
            }
            let payload = &bytes[pos + 8..pos + 8 + len];
            if crc32(payload) != crc {
                return Err(corrupt(pos as u64, "record checksum mismatch"));
            }
            let record = JournalRecord::decode(payload)
                .map_err(|e| corrupt((pos + 8 + e.offset) as u64, e.what))?;
            records.push(record);
            pos += 8 + len;
        }
    }

    /// Number of records ever appended (including those replayed on open).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The active fsync policy.
    pub fn fsync_policy(&self) -> FsyncPolicy {
        self.fsync
    }

    /// Appends one record (write-ahead: callers journal *before* applying
    /// the operation in memory). Returns the record's index.
    pub fn append(&mut self, record: &JournalRecord) -> Result<u64, DurabilityError> {
        self.append_inner(record, self.fsync == FsyncPolicy::Always)
    }

    /// Appends one record *without* the per-record fsync the
    /// [`FsyncPolicy::Always`] policy would apply — the group-commit
    /// building block. The caller owes a [`Journal::sync_group`] before
    /// acknowledging the record as durable.
    pub fn append_deferred(&mut self, record: &JournalRecord) -> Result<u64, DurabilityError> {
        self.append_inner(record, false)
    }

    fn append_inner(&mut self, record: &JournalRecord, sync: bool) -> Result<u64, DurabilityError> {
        // Crash-style (panic/abort) and disk-fault-style (err(ENOSPC),
        // err(EIO)) actions both arm here; the err flavour surfaces as an
        // ordinary `DurabilityError::Io`, exactly like a full disk.
        fail_point_io!("store.journal.append");
        let payload = record.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        // One write call for the whole frame: a crash can tear the frame
        // but never interleave it with another record.
        self.file.write_all(&frame)?;
        let reg = obs::global();
        reg.add("durability.journal.appends", 1);
        reg.add("durability.journal.append_bytes", frame.len() as u64);
        if sync {
            self.file.sync_data()?;
            reg.add("durability.journal.fsyncs", 1);
        }
        let index = self.seq;
        self.seq += 1;
        Ok(index)
    }

    /// Forces buffered appends to disk regardless of the fsync policy.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        // A failed group fsync models the nastiest disk fault: the frames
        // are in the file but their durability was never acknowledged.
        fail_point_io!("store.journal.fsync");
        self.file.sync_data()?;
        obs::global().add("durability.journal.fsyncs", 1);
        Ok(())
    }

    /// Settles a group of [`Journal::append_deferred`] appends: one fsync
    /// under [`FsyncPolicy::Always`], a no-op under
    /// [`FsyncPolicy::Never`] (where the appends were never owed a sync).
    pub fn sync_group(&mut self) -> Result<(), DurabilityError> {
        if self.fsync == FsyncPolicy::Always {
            self.sync()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("webreason-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.wal")
    }

    fn sample_records() -> Vec<JournalRecord> {
        use rdf_model::TermId;
        let t = |i| TermId::from_index(i);
        vec![
            JournalRecord::InsertBatch {
                new_terms: vec![Term::iri("http://ex/a"), Term::literal("x")],
                triples: vec![Triple::new(t(0), t(1), t(2)), Triple::new(t(2), t(1), t(0))],
            },
            JournalRecord::SetThreads { threads: 4 },
            JournalRecord::DeleteBatch {
                new_terms: vec![],
                triples: vec![Triple::new(t(0), t(1), t(2))],
            },
            JournalRecord::SetConfig {
                name: "saturation(dred)".into(),
            },
            JournalRecord::CheckpointMark { seq: 3 },
            JournalRecord::UpdateScript {
                new_terms: vec![Term::iri("http://ex/b")],
                ops: vec![
                    ScriptedOp::Insert(Triple::new(t(3), t(1), t(2))),
                    ScriptedOp::Delete(Triple::new(t(3), t(1), t(2))),
                    ScriptedOp::Insert(Triple::new(t(0), t(1), t(3))),
                ],
            },
        ]
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("roundtrip");
        let records = sample_records();
        {
            let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
            for (i, r) in records.iter().enumerate() {
                assert_eq!(j.append(r).unwrap(), i as u64);
            }
        }
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.torn_bytes, 0);
        // reopening resumes the sequence
        let j = Journal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(j.seq(), records.len() as u64);
    }

    #[test]
    fn deferred_appends_replay_and_sync_group_settles_them() {
        let path = tmp("deferred");
        let records = sample_records();
        {
            let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
            for (i, r) in records.iter().enumerate() {
                assert_eq!(j.append_deferred(r).unwrap(), i as u64);
            }
            j.sync_group().unwrap();
        }
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records, records);
        assert_eq!(replay.torn_bytes, 0);
    }

    #[test]
    fn script_op_kind_byte_is_validated() {
        // A frame whose payload claims tag 6 but carries an op kind
        // outside {0, 1} must be corruption, not a silent skip.
        let mut e = Encoder::new();
        e.u8(6);
        e.u32(0); // no new terms
        e.u32(1); // one op
        e.u8(7); // bogus kind
        assert!(JournalRecord::decode(&e.into_bytes()).is_err());
    }

    #[test]
    fn torn_tail_is_detected_and_truncated() {
        let path = tmp("torn");
        {
            let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let full = std::fs::read(&path).unwrap();
        let clean = Journal::replay(&path).unwrap();
        // Cut the file mid-way through the final record.
        let cut = clean.valid_len as usize - 3;
        std::fs::write(&path, &full[..cut]).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records.len(), sample_records().len() - 1);
        assert!(replay.torn_bytes > 0, "tail reported torn");
        // Opening for append truncates the tail away…
        let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(j.seq(), sample_records().len() as u64 - 1);
        // …and the journal accepts appends cleanly afterwards.
        j.append(&JournalRecord::SetThreads { threads: 2 }).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(replay.records.len(), sample_records().len());
    }

    #[test]
    fn flipped_byte_is_corruption_not_tearing() {
        let path = tmp("flip");
        {
            let mut j = Journal::open(&path, FsyncPolicy::Always).unwrap();
            for r in sample_records() {
                j.append(&r).unwrap();
            }
        }
        let clean = std::fs::read(&path).unwrap();
        // Flip one byte in every position after the magic: replay must
        // either report corruption or (for a flip inside the final record's
        // length header that shortens it) a torn tail — never panic, never
        // silently succeed with all records intact.
        for i in JOURNAL_MAGIC.len()..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            match Journal::replay(&path) {
                Err(DurabilityError::Corrupt { .. }) => {}
                Ok(replay) => {
                    assert!(
                        replay.records.len() < sample_records().len()
                            || replay.torn_bytes > 0
                            || replay.records != sample_records(),
                        "flip at byte {i} went unnoticed"
                    );
                }
                Err(e) => panic!("unexpected error kind for flip at {i}: {e}"),
            }
        }
        let mut bytes = clean;
        bytes[0] ^= 0x01; // magic
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::replay(&path),
            Err(DurabilityError::Corrupt { .. })
        ));
    }
}
