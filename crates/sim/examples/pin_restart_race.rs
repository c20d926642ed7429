//! Soak driver for the cross-wave reply-ship race (DESIGN §6.12): loop
//! the server-crash scenario and, if a post-restart stale object ever
//! appears again, print that iteration's events filtered to the stale
//! page.
//! Before the fix this fired within ~150-300 iterations; it is the tool
//! that pinned the root cause, kept as a regression soak
//! (`cargo run --release -p fgl-sim --example pin_restart_race`).
//!
//! Iteration count, base seed and scheduler are configurable so CI can
//! run a short leg and a reproduction can replay an exact failure:
//!
//! ```text
//! pin_restart_race [ITERS] [SEED]
//! FGL_SOAK_ITERS=100 FGL_SOAK_SEED=7 FGL_SOAK_SCHED=event pin_restart_race
//! FGL_SOAK_STRATEGY=redo-only pin_restart_race   # non-default logging
//! ```
//!
//! Positional args win over env vars; each iteration `i` runs with seed
//! `SEED + i - 1`, so a reported failing iteration is replayable alone
//! with `ITERS=1` and that iteration's seed.

use fgl::SystemConfig;
use fgl_sim::crash::{run_crash_scenario_with, CrashKind};
use fgl_sim::harness::SchedulerKind;
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};

fn arg_or_env(pos: usize, env: &str, default: u64) -> u64 {
    std::env::args()
        .nth(pos)
        .or_else(|| std::env::var(env).ok())
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {env}/arg: {v}")))
        .unwrap_or(default)
}

fn main() {
    let iters = arg_or_env(1, "FGL_SOAK_ITERS", 2000);
    let base_seed = arg_or_env(2, "FGL_SOAK_SEED", 2);
    let scheduler: SchedulerKind = std::env::var("FGL_SOAK_SCHED")
        .map(|v| v.parse().expect("FGL_SOAK_SCHED"))
        .unwrap_or_default();
    let strategy: fgl::LoggingStrategyKind = std::env::var("FGL_SOAK_STRATEGY")
        .map(|v| v.parse().expect("FGL_SOAK_STRATEGY"))
        .unwrap_or_default();
    let cfg = SystemConfig::default().with_logging_strategy(strategy);

    let mut spec = WorkloadSpec::new(WorkloadKind::HotCold);
    spec.pages = 12;
    spec.objects_per_page = 8;
    spec.ops_per_txn = 4;
    spec.write_fraction = 0.5;

    eprintln!(
        "soak: {iters} iterations, seeds {base_seed}.., scheduler={}, strategy={}",
        scheduler.name(),
        strategy.name()
    );
    // The scenario's threads exit, and their flight-recorder rings with
    // them, before a failure is seen: capture each iteration's events.
    let (capture, _capture_guard) = fgl_obs::CaptureSink::install();
    for i in 1..=iters {
        let seed = base_seed + (i - 1);
        capture.drain();
        let r = run_crash_scenario_with(
            cfg.clone(),
            3,
            CrashKind::Server,
            spec.clone(),
            10,
            seed,
            scheduler,
        )
        .unwrap();
        if !r.is_clean() {
            println!(
                "iteration {i} (seed {seed}): after-recovery {:?} / final {:?} / stale {:?}",
                r.verify_after_recovery.mismatches, r.verify_final.mismatches, r.stale_reads
            );
            let pages: Vec<String> = r
                .verify_final
                .mismatches
                .iter()
                .chain(r.verify_after_recovery.mismatches.iter())
                .chain(r.stale_reads.iter())
                .map(|o| format!("{}", o.page))
                .collect();
            let all = capture.drain();
            let start = all.len().saturating_sub(12000);
            for s in &all[start..] {
                let line = format!("{}", s.event);
                let relevant = pages
                    .iter()
                    .any(|p| line.ends_with(p.as_str()) || line.contains(&format!("{p} ")))
                    || line.contains("recovery-phase")
                    || line.contains("txn-abort")
                    || line.contains("abort");
                if relevant {
                    println!("{:>10} {:>9} {line}", s.seq, s.at_us);
                }
            }
            std::process::exit(1);
        }
        if i % 50 == 0 {
            eprintln!("iter {i} clean");
        }
    }
    eprintln!("no failure in {iters} iterations");
}
