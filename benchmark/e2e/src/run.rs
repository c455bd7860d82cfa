//! Set-up and timed passes: one closed-loop client, one connection.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use bench_ops::json::{self, Value};
use bench_ops::stats::median;
use bench_ops::traffic::{self, Class, CycleGen, Kind, Op, Query, Shape, Spec, Update};

use crate::http::{count_rows, Client};
use crate::oracle::Oracle;
use crate::server::{Server, ServerConfig};

/// The dataset as the client sends it: `POST /update` bodies.
pub struct Dataset {
    /// Insert scripts, each within the server's 4 MB body limit.
    pub scripts: Vec<String>,
    pub shape: Shape,
}

/// The server's body limit is 4 MiB; stay clear of it.
const MAX_SCRIPT_BYTES: usize = 4_000_000;

impl Dataset {
    /// Cuts N-Triples text into `insert …` scripts.
    pub fn from_ntriples(ntriples: &str, shape: Shape) -> Dataset {
        let mut scripts = Vec::<String>::new();
        for line in ntriples.lines().filter(|l| !l.trim().is_empty()) {
            let statement = format!("insert {line}\n");
            match scripts.last_mut() {
                Some(s) if s.len() + statement.len() <= MAX_SCRIPT_BYTES => s.push_str(&statement),
                _ => scripts.push(statement),
            }
        }
        Dataset { scripts, shape }
    }
}

/// A live server with the dataset loaded and one connection to it.
pub struct Session {
    pub server: Server,
    client: Client,
    gen: CycleGen,
    /// `mixed_sub`: subscription id and the epoch of the last batch seen.
    subscription: Option<(u64, u64)>,
    body: Vec<u8>,
    pub tally: Tally,
    /// See [`Session::triple_count`].
    count_query: String,
}

/// Requests sent and requests that failed a check, since the load.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// When a pass ends; either way it ends on a cycle boundary.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this many cycles: a fixed amount of work (the warm-up).
    Cycles(usize),
    /// After the first cycle that ends past this much time.
    Time(Duration),
}

/// What one cycle measured. A cycle is a fixed amount of work, so
/// cycles — not passes, which hold a varying number of them — are the
/// samples every timing is computed from.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Requests answered 200-and-correct per second of cycle wall time.
    pub ops_per_s: f64,
    /// p50 latency over the cycle's light ops, ms.
    pub light_ms: f64,
    /// p50 latency over the cycle's heavy ops, ms.
    pub heavy_ms: f64,
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    pub cycles: Vec<Cycle>,
    /// Row counts of the pass's first cycle (read workloads).
    pub first_cycle_rows: Vec<u64>,
}

fn protocol(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl Session {
    /// Spawns a server on a fresh `journal`, loads the dataset, registers
    /// `mixed_sub`'s subscription. The op stream starts at its first
    /// cycle, so every set-up of a run replays the same warm-up.
    pub fn start(
        cfg: &ServerConfig,
        journal: &Path,
        spec: &Spec,
        data: &Dataset,
        seed: u64,
        cpu: usize,
    ) -> io::Result<Session> {
        if journal.exists() {
            std::fs::remove_dir_all(journal)?;
        }
        let server = Server::spawn(cfg, journal)?;
        crate::affinity::pin_pair(server.pid(), cpu)?;
        let mut client = Client::connect(server.addr)?;
        let mut body = Vec::new();
        for script in &data.scripts {
            let status = client.request("POST", "/update", script.as_bytes(), &mut body)?;
            if status != 200 {
                return Err(protocol(format!(
                    "load: HTTP {status}: {}",
                    String::from_utf8_lossy(&body)
                )));
            }
        }
        let subscription = if spec.kind == Kind::Mixed {
            let q = traffic::subscription_query(&data.shape);
            let status = client.request("POST", "/subscribe", q.as_bytes(), &mut body)?;
            let text = String::from_utf8_lossy(&body);
            let header = json::parse_prefix(&text).map(|(v, _)| v).ok();
            let field = |k| header.as_ref()?.get(k)?.as_u64();
            match (status, field("id"), field("epoch")) {
                (200, Some(id), Some(epoch)) => Some((id, epoch)),
                _ => return Err(protocol(format!("subscribe: HTTP {status}: {text}"))),
            }
        } else {
            None
        };
        Ok(Session {
            server,
            client,
            gen: CycleGen::new(spec.kind, data.shape, seed),
            subscription,
            body,
            tally: Tally::default(),
            count_query: match spec.kind {
                Kind::Write => "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }".to_owned(),
                Kind::Read | Kind::Mixed => format!(
                    "SELECT (COUNT(*) AS ?n) WHERE {{ ?x <{}takesCourse> ?y }}",
                    data.shape.ns_ub
                ),
            },
        })
    }

    /// Kills the server where it stands and starts another on the same
    /// journal; returns once the new one accepts connections.
    pub fn restart(&mut self, cfg: &ServerConfig, journal: &Path) -> io::Result<()> {
        self.server.stop();
        self.server = Server::spawn(cfg, journal)?;
        self.client = Client::connect(self.server.addr)?;
        Ok(())
    }

    /// Runs whole cycles until `limit` is reached, on CPU `cpu`.
    pub fn pass(
        &mut self,
        limit: Limit,
        cpu: usize,
        oracle: &mut Option<Oracle>,
    ) -> io::Result<Pass> {
        crate::affinity::pin_pair(self.server.pid(), cpu)?;
        let mut measured = Vec::new();
        let mut first_cycle_rows = Vec::new();
        let start = Instant::now();
        while match limit {
            Limit::Cycles(n) => measured.len() < n,
            Limit::Time(target) => measured.is_empty() || start.elapsed() < target,
        } {
            let ops = self.gen.next_cycle();
            let (mut light, mut heavy) = (Vec::new(), Vec::new());
            let (mut sent, mut failed) = (0, 0);
            let cycle_start = Instant::now();
            for op in &ops {
                let t0 = Instant::now();
                let outcome = self.execute(op, oracle)?;
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                match op.class() {
                    Class::Light => light.push(ms),
                    Class::Heavy => heavy.push(ms),
                }
                sent += op.requests();
                failed += outcome.failed;
                if measured.is_empty() {
                    first_cycle_rows.extend(outcome.rows);
                }
            }
            let wall = cycle_start.elapsed().as_secs_f64();
            self.tally.attempted += sent;
            self.tally.failed += failed;
            measured.push(Cycle {
                ops_per_s: sent.saturating_sub(failed) as f64 / wall,
                light_ms: median(&light),
                heavy_ms: median(&heavy),
            });
        }
        Ok(Pass {
            cycles: measured,
            first_cycle_rows,
        })
    }

    fn execute(&mut self, op: &Op, oracle: &mut Option<Oracle>) -> io::Result<Outcome> {
        match op {
            Op::Query(q) => self.query(q, oracle),
            Op::Update(u) => self.update(u).map(|(outcome, _)| outcome),
            Op::UpdateDelta { update, row } => {
                let (mut outcome, epoch) = self.update(update)?;
                let (id, last) = self
                    .subscription
                    .expect("mixed_sub registers a subscription");
                let path = format!("/subscribe/{id}?from={last}");
                let status = self.client.request("GET", &path, b"", &mut self.body)?;
                // The delta is in hand here; checking it is off the clock
                // only in the sense that nothing else waits for it.
                let want = if update.insert { 1.0 } else { -1.0 };
                let delivered = status == 200
                    && epoch.is_some_and(|e| delta_delivered(&self.body, e, row, want));
                if !delivered {
                    outcome.failed += 1;
                }
                if let Some(e) = epoch {
                    self.subscription = Some((id, e));
                }
                Ok(outcome)
            }
        }
    }

    fn query(&mut self, q: &Query, oracle: &mut Option<Oracle>) -> io::Result<Outcome> {
        let status = self
            .client
            .request("POST", "/query", q.sparql.as_bytes(), &mut self.body)?;
        let rows = if status == 200 {
            count_rows(&self.body)
        } else {
            None
        };
        let correct = match (rows, oracle) {
            (Some(n), Some(oracle)) => n == oracle.expected_rows(q),
            (Some(_), None) => true,
            (None, _) => false,
        };
        Ok(Outcome {
            failed: u64::from(!correct),
            rows: rows.or(Some(u64::MAX)),
        })
    }

    /// Sends an update; returns its outcome and the acknowledged epoch.
    fn update(&mut self, u: &Update) -> io::Result<(Outcome, Option<u64>)> {
        let status = self
            .client
            .request("POST", "/update", u.script.as_bytes(), &mut self.body)?;
        let reply = json::parse_bytes(&self.body);
        let field = |k| reply.as_ref()?.get(k)?.as_u64();
        // How many triples an update adds to or removes from what the
        // server answers with depends on what else entails them (deleting
        // `worksFor` next to a `headOf` removes nothing from G∞), so the
        // reply's counts are not checked: that the script was accepted
        // whole is, and that a cycle's deletes undo its inserts is checked
        // on the triple count after the run.
        let correct = status == 200 && field("accepted") == Some(u.lines as u64);
        Ok((
            Outcome {
                failed: u64::from(!correct),
                rows: None,
            },
            field("epoch"),
        ))
    }

    /// A `SELECT (COUNT(*) …)` whose answer every op of the workload's
    /// cycle moves and every whole cycle restores: all of G∞ on the
    /// saturated store; on the rewriting stores (which cannot count over
    /// a variable predicate) the `takesCourse` triples `mixed_sub` writes.
    pub fn triple_count(&mut self) -> io::Result<Option<u64>> {
        let status = self.client.request(
            "POST",
            "/query",
            self.count_query.as_bytes(),
            &mut self.body,
        )?;
        if status != 200 {
            return Ok(None);
        }
        // {"vars":["n"],"rows":[["\"123\"^^<…#integer>"]],…}
        Ok(json::parse_bytes(&self.body)
            .as_ref()
            .and_then(|r| {
                r.get("rows")?
                    .as_array()?
                    .first()?
                    .as_array()?
                    .first()?
                    .as_str()
            })
            .and_then(|lit| lit.split('"').nth(1)?.parse().ok()))
    }

    /// `GET /metrics`, Prometheus text.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.client
            .request("GET", "/metrics", b"", &mut self.body)?;
        Ok(String::from_utf8_lossy(&self.body).into_owned())
    }
}

struct Outcome {
    /// Requests of this op that failed a check.
    failed: u64,
    /// Row count of a query (`u64::MAX` for an unreadable reply).
    rows: Option<u64>,
}

/// Whether a `GET /subscribe/{id}?from=E` reply holds the batch of
/// `epoch` with exactly one event: `row` with multiplicity `delta`.
fn delta_delivered(body: &[u8], epoch: u64, row: &str, delta: f64) -> bool {
    let reply = json::parse_bytes(body);
    let batches = reply
        .as_ref()
        .and_then(|r| r.get("batches")?.as_array())
        .unwrap_or(&[]);
    batches.iter().any(|b| {
        let events = b.get("events").and_then(Value::as_array).unwrap_or(&[]);
        b.get("epoch").and_then(Value::as_u64) == Some(epoch)
            && b.get("reset") == Some(&Value::Bool(false))
            && events.len() == 1
            && events[0].get("delta").and_then(Value::as_f64) == Some(delta)
            && events[0]
                .get("row")
                .and_then(Value::as_array)
                .is_some_and(|r| r.len() == 1 && r[0].as_str() == Some(row))
    })
}

/// FNV-1a over a cycle's row counts: the value `expected.json` pins.
pub fn checksum(rows: &[u64]) -> u64 {
    rows.iter()
        .flat_map(|n| n.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_scripts_respect_the_body_limit_and_keep_every_line() {
        let line = format!("<http://a/{}> <http://p> <http://o> .", "x".repeat(1000));
        let nt: String = (0..9000).map(|_| format!("{line}\n")).collect();
        let shape = Shape {
            ns_ub: "",
            ns_data: "",
            universities: 1,
            departments: 1,
            faculty: 1,
            courses: 1,
        };
        let d = Dataset::from_ntriples(&nt, shape);
        assert!(d.scripts.len() >= 3);
        assert!(d.scripts.iter().all(|s| s.len() <= MAX_SCRIPT_BYTES));
        let lines: usize = d.scripts.iter().map(|s| s.lines().count()).sum();
        assert_eq!(lines, 9000);
    }

    #[test]
    fn delta_check_wants_the_acked_epoch_and_the_one_row() {
        let body = br#"{"batches":[{"epoch":7,"reset":false,"events":[{"row":["<http://x>"],"delta":1}]}],"terminal":null}"#;
        assert!(delta_delivered(body, 7, "<http://x>", 1.0));
        assert!(!delta_delivered(body, 8, "<http://x>", 1.0));
        assert!(!delta_delivered(body, 7, "<http://y>", 1.0));
        assert!(!delta_delivered(body, 7, "<http://x>", -1.0));
        assert!(!delta_delivered(
            br#"{"batches":[],"terminal":null}"#,
            7,
            "<http://x>",
            1.0
        ));
    }
}
