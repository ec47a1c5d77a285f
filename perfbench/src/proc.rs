//! Child processes: the `qar` binary under test, its wall time, and its
//! peak resident set size as the kernel reports it to `wait4`.

use std::io;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The longest any single child may run before it is killed, so a hung
/// program still ends the benchmark within its time limit.
pub const CHILD_LIMIT: Duration = Duration::from_secs(150);

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exit {
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Spawn (or the caller's start instant) to reap.
    pub wall: Duration,
    /// `ru_maxrss` of the child (and of any children it reaped), KiB.
    pub maxrss_kib: u64,
}

impl Exit {
    /// True for exit code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }

    /// Peak RSS in MiB.
    pub fn maxrss_mib(&self) -> f64 {
        self.maxrss_kib as f64 / 1024.0
    }
}

/// The `qar` binary built beside this benchmark's executable (both land
/// in the same Cargo target directory).
pub fn qar_exe() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| io::Error::other("benchmark executable has no parent directory"))?;
    let qar = dir.join("qar");
    if qar.is_file() {
        Ok(qar)
    } else {
        Err(io::Error::other(format!(
            "`{}` not found; build it with `cargo build --release --bin qar`",
            qar.display()
        )))
    }
}

/// Spawn `cmd` and reap it, timing from just before the spawn.
pub fn run(cmd: &mut Command) -> io::Result<Exit> {
    let started = Instant::now();
    let child = cmd.spawn()?;
    reap(child, started)
}

/// Wait for `child` (spawned at `started`), killing it after
/// [`CHILD_LIMIT`].
pub fn reap(mut child: Child, started: Instant) -> io::Result<Exit> {
    let pid = child.id() as i32;
    let (done, watchdog) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let child = &mut child;
        s.spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = watchdog.recv_timeout(CHILD_LIMIT) {
                let _ = child.kill();
            }
        });
        let reaped = reap_pid(pid).map(|(code, maxrss_kib)| Exit {
            code,
            wall: started.elapsed(),
            maxrss_kib,
        });
        let _ = done.send(());
        reaped
    })
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    /// `pid_t wait4(pid_t pid, int *wstatus, int options, struct rusage *rusage)`,
    /// from the C library std already links.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `pid`, returning its exit code (if it exited) and `ru_maxrss`.
fn reap_pid(pid: i32) -> io::Result<(Option<i32>, u64)> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the C `int` and `struct rusage` wait4 fills on 64-bit Linux.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED / WEXITSTATUS.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, usage.maxrss.max(0) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_and_rss_come_back() {
        let ok = run(Command::new("true").arg("x")).unwrap();
        assert!(ok.success());
        assert!(ok.maxrss_kib > 0);
        let bad = run(&mut Command::new("false")).unwrap();
        assert_eq!(bad.code, Some(1));
        let killed = run(Command::new("sh").args(["-c", "kill -9 $$"])).unwrap();
        assert_eq!(killed.code, None);
    }
}
