//! A soak for the deferred-completion race (DESIGN §6.12, second
//! paragraph): a lock grant whose page misses the copy a deferred
//! callback's completion shipped, because a callback wave racing the
//! completion answered with no copy.
//!
//! No crash. HOTCOLD on 64 green clients over two scheduler workers, with
//! the `simlat_fanin` benchmark's 40 µs network and 400 µs disk delays.
//! Every read is checked against the oracle as it returns, and the
//! database is read back at the end. With the fix reverted nearly every
//! seed reads stale objects; the failure shows at the read, and only
//! sometimes survives to the read-back. On a stale object the soak
//! prints the iteration's events on the stale pages and exits 1.
//!
//! ```text
//! pin_grant_race [ITERS] [SEED]      # CI: pin_grant_race 20 4000
//! ```
//!
//! Positional args win over the `FGL_SOAK_ITERS` / `FGL_SOAK_SEED` env
//! vars; iteration `i` runs with seed `SEED + i - 1`, so a failing
//! iteration replays alone with `ITERS=1` and its seed.

use fgl::{System, SystemConfig};
use fgl_sim::harness::{run_workload, HarnessOptions, SchedulerKind};
use fgl_sim::oracle::Oracle;
use fgl_sim::setup::populate;
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};
use std::time::Duration;

fn arg_or_env(pos: usize, env: &str, default: u64) -> u64 {
    std::env::args()
        .nth(pos)
        .or_else(|| std::env::var(env).ok())
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {env}/arg: {v}")))
        .unwrap_or(default)
}

fn main() {
    let iters = arg_or_env(1, "FGL_SOAK_ITERS", 20);
    let base_seed = arg_or_env(2, "FGL_SOAK_SEED", 4000);
    let cfg = SystemConfig {
        server_cache_pages: 2_048,
        net_latency: Duration::from_micros(40),
        disk_latency: Duration::from_micros(400),
        lock_timeout: Duration::from_secs(2),
        ..SystemConfig::default()
    };
    eprintln!("soak: {iters} iterations, seeds {base_seed}..");
    let (capture, _capture_guard) = fgl_obs::CaptureSink::install();
    for i in 1..=iters {
        let seed = base_seed + (i - 1);
        capture.drain();
        let sys = System::build(cfg.clone(), 64).unwrap();
        let spec = WorkloadSpec::new(WorkloadKind::HotCold);
        let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).unwrap();
        let oracle = Oracle::new();
        oracle.seed(sys.client(0), &layout).unwrap();
        let mut opts = HarnessOptions::new(spec, 100);
        opts.seed = seed;
        opts.scheduler = SchedulerKind::Event;
        opts.event_workers = 2;
        run_workload(&sys, &layout, Some(&oracle), &opts).unwrap();
        let read_stale = oracle.stale_reads();
        let read_back = oracle.verify_via_reads(sys.client(0)).unwrap().mismatches;
        if !read_stale.is_empty() || !read_back.is_empty() {
            println!(
                "iteration {i} (seed {seed}): read stale {read_stale:?} / read back stale {read_back:?}"
            );
            let pages: Vec<String> = read_stale
                .iter()
                .chain(&read_back)
                .map(|o| format!("{}", o.page))
                .collect();
            for s in capture.drain() {
                let line = format!("{}", s.event);
                if pages
                    .iter()
                    .any(|p| line.ends_with(p.as_str()) || line.contains(&format!("{p} ")))
                {
                    println!("{:>10} {:>9} {line}", s.seq, s.at_us);
                }
            }
            std::process::exit(1);
        }
    }
    eprintln!("no failure in {iters} iterations");
}
