//! Child processes: the real release binaries, driven from outside.
//!
//! End-to-end numbers come from `wmlp-serve` and `experiments` as their
//! users run them — separate processes, talked to over loopback and
//! stdout. The server is given only long-standing documented flags and
//! is recognised by its two greppable banners (`listening on …`,
//! `store: N warm pages recovered (…)`), so a rename elsewhere is a
//! one-line fix here. Every child is killed and reaped when its handle
//! drops, whatever path the harness leaves by.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::Duration;

use crate::clock::Clock;

/// How long a child may take to exit once asked to.
const EXIT_TIMEOUT_NS: u64 = 30_000_000_000;

/// A spawned child with its stdout piped to the harness.
pub struct Child {
    child: std::process::Child,
    stdout: BufReader<ChildStdout>,
}

impl Child {
    /// Spawn `program args…` in `cwd` (stderr is inherited, so a child's
    /// complaint reaches the person running the benchmark).
    pub fn spawn(program: &Path, args: &[String], cwd: &Path) -> Result<Child, String> {
        let mut child = Command::new(program)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            // lint:allow(C1): reaping a process, not a condvar wait
            let _ = child.wait();
            return Err(format!("{}: no stdout pipe", program.display()));
        };
        Ok(Child {
            child,
            stdout: BufReader::new(stdout),
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The next stdout line without its newline; `None` at end of output.
    pub fn read_line(&mut self) -> Result<Option<String>, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Ok(None),
            Ok(_) => Ok(Some(line.trim_end().to_string())),
            Err(e) => Err(format!("reading child stdout: {e}")),
        }
    }

    /// Wait for the child to exit on its own and return whether it
    /// reported success; a child still running after 30 s is killed.
    pub fn wait_success(&mut self) -> Result<bool, String> {
        let clock = Clock::start();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status.success()),
                Ok(None) if clock.now_ns() > EXIT_TIMEOUT_NS => {
                    return Err("child did not exit within 30 s".into());
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("waiting for child: {e}")),
            }
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        // A child that already exited makes both calls no-ops.
        let _ = self.child.kill();
        // lint:allow(C1): reaping a process, not a condvar wait
        let _ = self.child.wait();
    }
}

/// A running `wmlp-serve`.
pub struct Server {
    /// The process, for `/proc` sampling and the final wait.
    pub child: Child,
    /// The address from the `listening on` banner.
    pub addr: SocketAddr,
    /// The count from the `store: N warm pages recovered` banner, when
    /// the server runs on a store.
    pub warm_pages: Option<u64>,
}

/// The count out of a `store: N warm pages recovered (mode)` banner.
pub fn parse_store_banner(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("store: ")?;
    let (n, tail) = rest.split_once(' ')?;
    tail.starts_with("warm pages recovered")
        .then(|| n.parse().ok())
        .flatten()
}

/// The address out of a `listening on ADDR` banner.
pub fn parse_listening_banner(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("listening on ")?.trim().parse().ok()
}

impl Server {
    /// Spawn `wmlp-serve` and read its banners up to `listening on`.
    pub fn spawn(program: &Path, args: &[String], cwd: &Path) -> Result<Server, String> {
        let mut child = Child::spawn(program, args, cwd)?;
        let mut warm_pages = None;
        loop {
            let Some(line) = child.read_line()? else {
                return Err("wmlp-serve exited before its `listening on` banner".into());
            };
            if let Some(n) = parse_store_banner(&line) {
                warm_pages = Some(n);
            }
            if let Some(addr) = parse_listening_banner(&line) {
                return Ok(Server {
                    child,
                    addr,
                    warm_pages,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banners_parse() {
        assert_eq!(
            parse_listening_banner("listening on 127.0.0.1:4613"),
            Some("127.0.0.1:4613".parse().unwrap())
        );
        assert_eq!(parse_listening_banner("listening on nowhere"), None);
        assert_eq!(parse_listening_banner("served 3 requests"), None);
        assert_eq!(
            parse_store_banner("store: 512 warm pages recovered (warm)"),
            Some(512)
        );
        assert_eq!(
            parse_store_banner("store: 0 warm pages recovered (cold)"),
            Some(0)
        );
        assert_eq!(parse_store_banner("store: many warm pages recovered"), None);
        assert_eq!(parse_store_banner("listening on 127.0.0.1:1"), None);
    }

    #[test]
    fn children_are_spawned_read_and_reaped() {
        let cwd = std::env::temp_dir();
        let args = ["-c".to_string(), "echo one; echo two".to_string()];
        let mut child = Child::spawn(Path::new("sh"), &args, &cwd).unwrap();
        assert!(child.pid() > 0);
        assert_eq!(child.read_line().unwrap().as_deref(), Some("one"));
        assert_eq!(child.read_line().unwrap().as_deref(), Some("two"));
        assert_eq!(child.read_line().unwrap(), None);
        assert!(child.wait_success().unwrap());
        let args = ["-c".to_string(), "exit 3".to_string()];
        let mut child = Child::spawn(Path::new("sh"), &args, &cwd).unwrap();
        assert!(!child.wait_success().unwrap());
        assert!(Child::spawn(Path::new("/nonexistent/program"), &[], &cwd).is_err());
    }
}
