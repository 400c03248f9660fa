//! Process plumbing: running a measuring child process under a time
//! limit, the peak resident set of a live process, and the process-tree
//! check of the load generator. Linux only: the last two read `/proc`.

use crate::stats::vmhwm_kib;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// How a measuring child ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Seconds from spawn to its `ready` line, if it printed one.
    pub ready: Option<f64>,
    /// Whether it exited 0 within its time limit.
    pub ok: bool,
}

/// Spawn `exe args`, hand every line it prints (split on spaces) to
/// `line`, and wait for it to exit. A child still running `limit` after
/// its spawn is killed and reaped, and is not `ok`.
///
/// # Errors
///
/// When the child cannot be started or waited for.
pub fn run_child(
    exe: &Path,
    args: &[&str],
    limit: Duration,
    mut line: impl FnMut(&[&str]),
) -> Result<Exit, String> {
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a measuring child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    // Lines are read, and time-stamped, on a thread of their own, so the
    // wait for the next one can time out.
    let (tx, lines) = mpsc::channel();
    let reader = thread::spawn(move || {
        for text in BufReader::new(stdout).lines() {
            let Ok(text) = text else { break };
            if tx.send((Instant::now(), text)).is_err() {
                break;
            }
        }
    });
    let mut ready = None;
    let mut in_time = true;
    loop {
        match lines.recv_timeout(limit.saturating_sub(start.elapsed())) {
            Ok((at, text)) => {
                let fields: Vec<&str> = text.split(' ').collect();
                if fields == ["ready"] {
                    ready = Some(at.duration_since(start).as_secs_f64());
                } else {
                    line(&fields);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                in_time = false;
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child
        .wait()
        .map_err(|e| format!("waiting for a measuring child: {e}"))?;
    let _ = reader.join();
    Ok(Exit {
        ready,
        ok: in_time && status.success(),
    })
}

/// Peak resident set of a live process (`VmHWM` of
/// `/proc/<pid>/status`), in MB (10^6 bytes).
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    vmhwm_kib(&status).map(|kib| kib as f64 * 1024.0 / 1e6)
}

/// Pids of the live processes whose parent is `pid`.
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let entry = entry.ok()?;
        let child: u32 = entry.file_name().to_str()?.parse().ok()?;
        let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
        (parent_pid(&stat)? == pid).then_some(child)
    })
    .collect()
}

/// The parent-pid field of a `/proc/<pid>/stat` line. The command name
/// before it is parenthesised and may itself hold spaces or `)`.
fn parent_pid(stat: &str) -> Option<u32> {
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    const LIMIT: Duration = Duration::from_secs(30);

    #[test]
    fn run_child_reports_ready_lines_and_exit() {
        let mut seen = Vec::new();
        let script = "echo ready; echo a b; exit 3";
        let exit = run_child(Path::new("sh"), &["-c", script], LIMIT, |f| {
            seen.push(f.join("+"))
        })
        .unwrap();
        assert!(exit.ready.is_some_and(|s| s >= 0.0));
        assert!(!exit.ok);
        assert_eq!(seen, ["a+b"]);
        let exit = run_child(Path::new("true"), &[], LIMIT, |_| {}).unwrap();
        assert_eq!(
            exit,
            Exit {
                ready: None,
                ok: true
            }
        );
    }

    #[test]
    fn run_child_kills_a_child_past_its_limit() {
        let began = Instant::now();
        let script = "echo ready; exec sleep 30";
        let limit = Duration::from_millis(200);
        let exit = run_child(Path::new("sh"), &["-c", script], limit, |_| {}).unwrap();
        assert!(exit.ready.is_some());
        assert!(!exit.ok);
        assert!(began.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn parent_pid_skips_odd_command_names() {
        assert_eq!(parent_pid("42 (ipassd) S 7 42 7 0"), Some(7));
        assert_eq!(parent_pid("42 (a b) c) R 9 1"), Some(9));
        assert_eq!(parent_pid("garbage"), None);
    }

    #[test]
    fn own_process_has_a_peak_and_a_child_list() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        let mut child = Command::new("sleep").arg("5").spawn().unwrap();
        assert!(children_of(std::process::id()).contains(&child.id()));
        child.kill().unwrap();
        child.wait().unwrap();
    }
}
