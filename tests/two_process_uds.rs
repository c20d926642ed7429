//! End-to-end two-process run over Unix-domain sockets (the ISSUE's
//! acceptance scenario): one `fgl_node server` process, two `fgl_node
//! client` processes hammering a shared contended database — one of
//! them crashing mid-run and recovering (§3.3) — then a `fgl_node
//! verify` process that re-reads every object over the wire and checks
//! it against the oracle dumps the clients wrote.
//!
//! Everything crosses a real socket: lock traffic, callbacks, page
//! ships, log forces and the recovery protocol. The only in-process
//! piece is this orchestrator.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const NODE: &str = env!("CARGO_BIN_EXE_fgl_node");

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgl-2proc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

fn node(args: &[&str]) -> Command {
    let mut cmd = Command::new(NODE);
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    cmd
}

fn check(name: &str, out: Output) {
    assert!(
        out.status.success(),
        "{name} failed ({}):\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

fn wait_checked(name: &str, child: Child) {
    check(name, child.wait_with_output().expect("wait"));
}

/// Wait until the server has published its endpoint manifest.
fn wait_for_layout(dir: &Path, server: &mut Child) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !dir.join("layout").exists() {
        if let Some(status) = server.try_wait().expect("try_wait") {
            panic!("server exited early with {status}");
        }
        assert!(Instant::now() < deadline, "server never published layout");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn two_clients_and_a_crash_over_uds() {
    let dir = fresh_dir("uds");
    let d = dir.to_str().unwrap();
    let stop = dir.join("stop");
    let stop_s = stop.to_str().unwrap();

    let mut server = node(&[
        "server",
        "--dir",
        d,
        "--pages",
        "8",
        "--objects",
        "8",
        "--exit-when",
        stop_s,
    ])
    .spawn()
    .expect("spawn server");
    wait_for_layout(&dir, &mut server);

    // Two clients on a shared hot set; client 1 crashes a third of the
    // way in and recovers via the §3.3 protocol before continuing.
    let c1 = node(&[
        "client",
        "--dir",
        d,
        "--id",
        "1",
        "--clients",
        "2",
        "--txns",
        "30",
        "--crash-at",
        "10",
    ])
    .spawn()
    .expect("spawn client 1");
    let c2 = node(&[
        "client",
        "--dir",
        d,
        "--id",
        "2",
        "--clients",
        "2",
        "--txns",
        "30",
    ])
    .spawn()
    .expect("spawn client 2");

    wait_checked("client 1", c1);
    wait_checked("client 2", c2);

    // Fresh process: read everything back over the wire and compare
    // against the oracle dumps the clients left behind.
    check(
        "verify",
        node(&["verify", "--dir", d]).output().expect("run verify"),
    );

    // Ask the server to exit and check it shuts down cleanly.
    std::fs::write(&stop, b"done").expect("write stop file");
    let out = server.wait_with_output().expect("wait");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    check("server", out);
    assert_socket_line(&stderr);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The server's exit line `socket: requests=N pool_threads=M ...`: the
/// requests ran on a handful of reused threads, not one each, and no
/// socket error was counted.
fn assert_socket_line(stderr: &str) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("socket: "))
        .expect("the server prints a socket line at exit");
    let field = |name: &str| -> u64 {
        line.split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
            .unwrap_or_else(|| panic!("no {name} in {line:?}"))
    };
    assert!(field("requests") >= 100, "{line}");
    assert!(field("pool_threads") <= 8, "{line}");
    for counter in ["conn_setup_failed", "read_failed", "bad_frame"] {
        assert_eq!(field(counter), 0, "{line}");
    }
}
