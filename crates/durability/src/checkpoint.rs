//! Checkpoints: a whole-store snapshot (dictionary + base graph + store
//! configuration) in a compact, checksummed binary file.
//!
//! ```text
//! file    := magic(8) len(u64 LE) crc32(u32 LE) payload(len bytes)
//! payload := seq(u64) config(str) threads(u32)
//!            n_terms(u32) term* n_triples(u32) triple*
//! ```
//!
//! A checkpoint named `checkpoint-<seq>.ckpt` covers journal records
//! `0..seq`; recovery loads the newest *valid* checkpoint and replays the
//! journal from `seq`. Writes are atomic: the bytes go to a temporary
//! file which is fsynced and then renamed into place, so a crash during
//! checkpointing leaves at worst a stale temp file, never a half-written
//! checkpoint under the real name. Because the journal is never truncated,
//! a store remains recoverable even if every checkpoint is lost — the
//! checkpoint only bounds how much journal must be replayed.

use crate::codec::{Decoder, Encoder};
use crate::crc32::crc32;
use crate::DurabilityError;
use rdf_model::{Term, Triple};
use std::path::{Path, PathBuf};
use webreason_failpoints::fail_point_io;

/// File magic: "WRCKP" + format version 1.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"WRCKP\x01\0\0";

/// A decoded checkpoint: everything needed to rebuild a `Store`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Journal records already reflected in this snapshot (`0..seq`).
    pub seq: u64,
    /// The store's reasoning strategy, by display name.
    pub config: String,
    /// A worker-thread count, which stores no longer have: written as 1
    /// and ignored on read, so the file format stays unchanged.
    pub threads: u32,
    /// The full dictionary, in id order (index = id).
    pub terms: Vec<Term>,
    /// The base graph `G`, as dictionary ids.
    pub triples: Vec<Triple>,
}

impl Checkpoint {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u64(self.seq);
        e.str(&self.config);
        e.u32(self.threads);
        e.u32(self.terms.len() as u32);
        for t in &self.terms {
            e.term(t);
        }
        e.u32(self.triples.len() as u32);
        for t in &self.triples {
            e.triple(t);
        }
        e.into_bytes()
    }

    fn decode(payload: &[u8]) -> Result<Checkpoint, crate::codec::CodecError> {
        let mut d = Decoder::new(payload);
        let seq = d.u64("checkpoint seq")?;
        let config = d.str("config name")?.to_owned();
        let threads = d.u32("thread count")?;
        let n_terms = d.u32("term count")? as usize;
        let mut terms = Vec::with_capacity(n_terms.min(1 << 20));
        for _ in 0..n_terms {
            terms.push(d.term()?);
        }
        let n_triples = d.u32("triple count")? as usize;
        let mut triples = Vec::with_capacity(n_triples.min(1 << 20));
        for _ in 0..n_triples {
            triples.push(d.triple()?);
        }
        if !d.is_exhausted() {
            return Err(crate::codec::CodecError {
                offset: d.offset(),
                what: "trailing bytes after checkpoint",
            });
        }
        Ok(Checkpoint {
            seq,
            config,
            threads,
            terms,
            triples,
        })
    }
}

/// The canonical file name for a checkpoint at `seq` (zero-padded so the
/// lexicographic order of names is the numeric order of sequences).
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:016}.ckpt")
}

/// Writes `cp` atomically under `dir`, returning the final path.
pub fn write_checkpoint(dir: &Path, cp: &Checkpoint) -> Result<PathBuf, DurabilityError> {
    let reg = obs::global();
    let _span = reg.span("durability.checkpoint.write");
    std::fs::create_dir_all(dir)?;
    let payload = cp.encode();
    let mut bytes = Vec::with_capacity(20 + payload.len());
    bytes.extend_from_slice(&CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);

    let tmp = dir.join("checkpoint.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        use std::io::Write as _;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    // Crash actions model dying between the tmp-file fsync and the
    // rename; err actions model the rename target's volume failing.
    // Either way the previous checkpoint (if any) stays intact.
    fail_point_io!("store.checkpoint.write");
    let path = dir.join(checkpoint_file_name(cp.seq));
    std::fs::rename(&tmp, &path)?;
    // Best effort: persist the rename itself.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    reg.add("durability.checkpoint.writes", 1);
    reg.add("durability.checkpoint.write_bytes", bytes.len() as u64);
    Ok(path)
}

/// Loads and validates one checkpoint file. Any truncation, checksum
/// mismatch or structural damage is an error — a checkpoint is used whole
/// or not at all.
pub fn load_checkpoint(path: &Path) -> Result<Checkpoint, DurabilityError> {
    let reg = obs::global();
    let _span = reg.span("durability.checkpoint.load");
    reg.add("durability.checkpoint.loads", 1);
    let bytes = std::fs::read(path)?;
    let corrupt = |offset: u64, what: &str| DurabilityError::Corrupt {
        path: path.to_owned(),
        offset,
        what: what.to_owned(),
    };
    if bytes.len() < 20 {
        return Err(corrupt(0, "checkpoint shorter than its header"));
    }
    if bytes[..8] != CHECKPOINT_MAGIC {
        return Err(corrupt(0, "checkpoint magic/version mismatch"));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("slice of 8")) as usize;
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("slice of 4"));
    if bytes.len() - 20 != len {
        return Err(corrupt(8, "checkpoint length mismatch"));
    }
    let payload = &bytes[20..];
    if crc32(payload) != crc {
        return Err(corrupt(16, "checkpoint checksum mismatch"));
    }
    Checkpoint::decode(payload).map_err(|e| corrupt(20 + e.offset as u64, e.what))
}

/// Scans `dir` for checkpoint files, newest (highest seq) first.
fn checkpoint_paths(dir: &Path) -> Result<Vec<PathBuf>, DurabilityError> {
    let mut paths = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(paths),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("checkpoint-") && name.ends_with(".ckpt") {
            paths.push(entry.path());
        }
    }
    paths.sort();
    paths.reverse();
    Ok(paths)
}

/// Loads the newest checkpoint in `dir` that validates, skipping damaged
/// ones (an older intact checkpoint plus a longer journal replay beats no
/// recovery at all). Returns `None` when no usable checkpoint exists.
pub fn load_latest(dir: &Path) -> Result<Option<(Checkpoint, PathBuf)>, DurabilityError> {
    for path in checkpoint_paths(dir)? {
        match load_checkpoint(&path) {
            Ok(cp) => return Ok(Some((cp, path))),
            Err(DurabilityError::Corrupt { .. }) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(None)
}

/// Deletes all but the newest `keep` checkpoints (and any stale temp
/// file), returning how many files were removed.
pub fn prune_checkpoints(dir: &Path, keep: usize) -> Result<usize, DurabilityError> {
    let mut removed = 0;
    for path in checkpoint_paths(dir)?.into_iter().skip(keep.max(1)) {
        std::fs::remove_file(&path)?;
        removed += 1;
    }
    let tmp = dir.join("checkpoint.tmp");
    if tmp.exists() {
        std::fs::remove_file(&tmp)?;
        removed += 1;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdf_model::TermId;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "webreason-checkpoint-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(seq: u64) -> Checkpoint {
        let t = |i| TermId::from_index(i);
        Checkpoint {
            seq,
            config: "saturation(counting)".into(),
            threads: 2,
            terms: vec![
                Term::iri("http://ex/s"),
                Term::iri("http://ex/p"),
                Term::literal("o"),
            ],
            triples: vec![Triple::new(t(0), t(1), t(2))],
        }
    }

    #[test]
    fn round_trip_and_latest_selection() {
        let dir = tmpdir("roundtrip");
        for seq in [3u64, 11, 7] {
            write_checkpoint(&dir, &sample(seq)).unwrap();
        }
        let (cp, path) = load_latest(&dir).unwrap().expect("a checkpoint");
        assert_eq!(cp, sample(11));
        assert!(path.ends_with(checkpoint_file_name(11)));
        // pruning keeps the newest two
        let removed = prune_checkpoints(&dir, 2).unwrap();
        assert_eq!(removed, 1);
        assert!(!dir.join(checkpoint_file_name(3)).exists());
        assert!(dir.join(checkpoint_file_name(11)).exists());
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        let dir = tmpdir("flip");
        let path = write_checkpoint(&dir, &sample(5)).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(load_checkpoint(&path), Err(DurabilityError::Corrupt { .. })),
                "flip at byte {i} accepted"
            );
        }
        // truncation at every length is rejected too
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(load_checkpoint(&path).is_err(), "truncation at {cut}");
        }
        std::fs::write(&path, &clean).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap(), sample(5));
    }

    #[test]
    fn damaged_newest_falls_back_to_older() {
        let dir = tmpdir("fallback");
        write_checkpoint(&dir, &sample(1)).unwrap();
        let newest = write_checkpoint(&dir, &sample(2)).unwrap();
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let (cp, _) = load_latest(&dir).unwrap().expect("fallback checkpoint");
        assert_eq!(cp.seq, 1);
        // no checkpoint at all is not an error
        let empty = tmpdir("empty");
        assert!(load_latest(&empty).unwrap().is_none());
        assert!(load_latest(&empty.join("missing")).unwrap().is_none());
    }
}
