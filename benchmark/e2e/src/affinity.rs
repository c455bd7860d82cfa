//! CPU placement of the client and of the server under test.
//!
//! On the 2-vCPU sandbox this benchmark is sized for, the two CPUs run at
//! different and changing speeds (a busy neighbour on the sibling
//! hyperthread costs a CPU about 40% for seconds to minutes, and the
//! guest cannot see it). Left to the scheduler, a run's timings depend on
//! which CPU the one busy thread happened to sit on. So client and server
//! are always placed together on one CPU — a closed loop never runs them
//! at the same time, and sharing a CPU spares each request two cross-CPU
//! wake-ups — and the CPU alternates from pass to pass, so every run
//! samples both. (Probing for the momentarily faster CPU was tried: a
//! few milliseconds of pointer chasing do not predict the next second.)

use std::io;

extern "C" {
    /// glibc/musl `sched_setaffinity(2)` wrapper; `std` already links libc.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins thread `tid` (0 = the calling thread) to `cpu`.
fn pin_thread(tid: i32, cpu: usize) -> io::Result<()> {
    assert!(cpu < 64, "cpu index fits one mask word");
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live, properly aligned u64 and the size passed
    // is exactly its size; the call reads it and keeps no pointer.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Pins this (single-threaded) client and every thread of process `pid`
/// to `cpu`.
pub fn pin_pair(pid: u32, cpu: usize) -> io::Result<()> {
    pin_thread(0, cpu)?;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let name = entry?.file_name();
        if let Some(tid) = name.to_str().and_then(|s| s.parse::<i32>().ok()) {
            // A thread may exit between the listing and the call.
            let _ = pin_thread(tid, cpu);
        }
    }
    Ok(())
}

/// CPUs this process may run on, read once at start-up.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("0")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend((lo..=hi).filter(|&c| c < 64));
        }
    }
    if cpus.is_empty() {
        cpus.push(0);
    }
    cpus
}
