//! The server under test: a `webreason serve` child process.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// How the child is started; fixed for a whole run.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Path of the `webreason` binary.
    pub binary: PathBuf,
    /// `--strategy` for a fresh journal.
    pub strategy: &'static str,
    /// `--fsync always|never`.
    pub fsync: &'static str,
}

/// `--threads` for the server: the host's core count, 2 on the machine
/// the noise floor was measured on. One closed-loop client never needs
/// more, and more workers than cores only measures the scheduler.
pub const SERVER_THREADS: usize = 2;

pub struct Server {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Starts the server on `journal` (fresh directory: new store;
    /// existing journal: recovery) and waits for its listening line.
    pub fn spawn(cfg: &ServerConfig, journal: &Path) -> io::Result<Server> {
        let mut child = Command::new(&cfg.binary)
            .arg("serve")
            .arg("--journal")
            .arg(journal)
            .args(["--strategy", cfg.strategy])
            .args(["--addr", "127.0.0.1:0"])
            .args(["--threads", &SERVER_THREADS.to_string()])
            .args(["--fsync", cfg.fsync])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .split("http://")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "server did not announce an address (printed {line:?})"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set of the child so far (`VmHWM`), in kB.
    pub fn rss_peak_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    }

    /// SIGKILL, then reap: nothing is flushed on the way out, which is
    /// what the restart measurement wants and what teardown can afford.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// 1 when `path` lives on a tmpfs mount, 0 otherwise (or when
/// `/proc/self/mountinfo` cannot say).
pub fn on_tmpfs(path: &Path) -> u64 {
    let Ok(path) = path.canonicalize() else {
        return 0;
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return 0;
    };
    // Fields: id parent major:minor root mount-point options… - fstype …
    mounts
        .lines()
        .filter_map(|l| {
            let (left, right) = l.split_once(" - ")?;
            let mount_point = left.split(' ').nth(4)?;
            let fs_type = right.split(' ').next()?;
            path.starts_with(mount_point)
                .then_some((mount_point.len(), fs_type == "tmpfs"))
        })
        .max_by_key(|&(len, _)| len)
        .map_or(0, |(_, tmpfs)| u64::from(tmpfs))
}
