//! Shared helpers for the bench harness: standard datasets, query prep,
//! plain-text table rendering and JSON result emission.
//!
//! The binaries (`fig3`, `tables`, `figures`) regenerate every figure and
//! table of the paper (see DESIGN.md §3 for the experiment index).

use rdf_model::Graph;
use serde::Serialize;
use sparql::Query;
use std::fmt::Write as _;
use std::path::PathBuf;
use workload::lubm::{generate, queries, LubmConfig};
use workload::Dataset;

/// Standard dataset scales used across the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ≈250 triples — unit-test sized.
    Tiny,
    /// ≈4k triples — a quick run.
    Small,
    /// ≈50k triples — the headline figure scale.
    Default,
    /// ≈150k triples (3 universities).
    Large,
}

impl Scale {
    /// Parses a scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "default" => Some(Scale::Default),
            "large" => Some(Scale::Large),
            _ => None,
        }
    }

    /// The LUBM config for this scale.
    pub fn config(self) -> LubmConfig {
        match self {
            Scale::Tiny => LubmConfig::tiny(),
            Scale::Small => LubmConfig {
                departments: 4,
                students_per_department: 60,
                ..LubmConfig::default()
            },
            Scale::Default => LubmConfig::default(),
            Scale::Large => LubmConfig::scaled(3),
        }
    }
}

/// Generates the LUBM dataset and the Q1–Q10 workload at a scale, with
/// every query set to `DISTINCT` (answer-set semantics on both techniques).
pub fn lubm_workload(scale: Scale) -> (Dataset, Vec<(String, Query)>) {
    let mut ds = generate(&scale.config());
    let named = queries(&mut ds);
    let qs = named
        .iter()
        .map(|nq| {
            let mut q = nq.query.clone();
            q.distinct = true;
            (nq.name.to_owned(), q)
        })
        .collect();
    (ds, qs)
}

/// Renders an aligned plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    let render_row = |cells: &[String], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            let pad = widths.get(i).copied().unwrap_or(0);
            let _ = write!(out, "{cell:<pad$}  ");
        }
        out.pop();
        out.pop();
        out.push('\n');
    };
    render_row(
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(row, &mut out);
    }
    out
}

/// Renders a horizontal log-scale ASCII bar for a value (None = ∞).
pub fn log_bar(value: Option<u64>, max_width: usize) -> String {
    match value {
        None => format!("{} ∞", "█".repeat(max_width)),
        Some(0) => String::new(),
        Some(v) => {
            // one block per order of magnitude, interpolated
            let magnitude = (v as f64).log10();
            let blocks = ((magnitude / 7.0) * max_width as f64).round() as usize;
            format!("{} {v}", "█".repeat(blocks.clamp(1, max_width)))
        }
    }
}

/// Writes `value` as pretty JSON under `bench_results/<name>.json`
/// (relative to the workspace root) and returns the path.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = workspace_root().join("bench_results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::other(format!("report is not serialisable: {e}")))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// [`write_json`] for the harness binaries: prints the path on success or
/// a readable message on failure, and returns whether the write landed so
/// `main` can exit non-zero instead of silently dropping the report.
pub fn emit_json<T: Serialize>(name: &str, value: &T) -> bool {
    match write_json(name, value) {
        Ok(path) => {
            eprintln!("wrote {}", path.display());
            true
        }
        Err(e) => {
            eprintln!("error: could not write bench_results/{name}.json: {e}");
            false
        }
    }
}

/// Measures the write-ahead-journal overhead a durable store adds to one
/// update: the per-append cost of journaling a representative one-triple
/// `InsertBatch` (a few fresh terms ride along, as they do in real
/// workloads). Returns seconds per append, or an error when the
/// filesystem refuses (the caller reports, it does not panic).
pub fn journal_append_cost(
    fsync: durability::FsyncPolicy,
    appends: usize,
) -> Result<f64, durability::DurabilityError> {
    use rdf_model::{Term, TermId, Triple};
    let dir = std::env::temp_dir().join(format!("webreason-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(durability::DurabilityError::Io)?;
    let path = dir.join(format!("overhead-{}.wal", fsync.name()));
    let _ = std::fs::remove_file(&path);
    let mut journal = durability::Journal::open(&path, fsync)?;
    let t = |i| TermId::from_index(i);
    let start = std::time::Instant::now();
    for i in 0..appends.max(1) {
        journal.append(&durability::JournalRecord::InsertBatch {
            new_terms: vec![
                Term::iri(format!("http://bench/subject-{i}")),
                Term::literal("payload"),
            ],
            triples: vec![Triple::new(t(i), t(1), t(2))],
        })?;
    }
    let per_append = start.elapsed().as_secs_f64() / appends.max(1) as f64;
    let _ = std::fs::remove_file(&path);
    Ok(per_append)
}

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// Times a closure, returning (result, seconds).
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = std::time::Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Formats seconds as an adaptive human unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Sanity helper used by several experiments: the answer sets of two
/// evaluation strategies must agree.
pub fn assert_same_answers(a: &sparql::Solutions, b: &sparql::Solutions, context: &str) {
    assert_eq!(a.as_set(), b.as_set(), "strategies disagree on {context}");
}

/// Convenience: saturated graph of a dataset.
pub fn saturated(ds: &Dataset) -> Graph {
    rdfs::saturate(&ds.graph, &ds.vocab).graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_generate() {
        for (name, scale) in [
            ("tiny", Scale::Tiny),
            ("small", Scale::Small),
            ("default", Scale::Default),
        ] {
            assert_eq!(Scale::parse(name), Some(scale));
        }
        assert_eq!(Scale::parse("bogus"), None);
        let (ds, qs) = lubm_workload(Scale::Tiny);
        assert_eq!(qs.len(), 10);
        assert!(ds.graph.len() > 200);
        assert!(qs.iter().all(|(_, q)| q.distinct));
    }

    #[test]
    fn table_renderer_aligns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "222".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a "));
    }

    #[test]
    fn log_bar_shapes() {
        assert!(log_bar(None, 10).contains('∞'));
        assert!(!log_bar(Some(1), 10).is_empty());
        let small = log_bar(Some(10), 20).chars().filter(|&c| c == '█').count();
        let big = log_bar(Some(10_000_000), 20)
            .chars()
            .filter(|&c| c == '█')
            .count();
        assert!(big > small);
    }

    #[test]
    fn fmt_secs_units() {
        assert_eq!(fmt_secs(2.5), "2.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(0.0000025), "2.5 µs");
    }
}
