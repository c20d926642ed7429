//! The repo benchmark. One workload per run:
//!
//! ```text
//! fgl-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result object the contract in
//! `BENCHMARK.json` describes; everything else goes to standard error and
//! to `benchmark/out/`. See `README.md` for what is measured and why.

mod decor;
mod driver;
mod hist;
mod opgen;
mod probes;
mod report;
mod rig;
mod sys;
mod trace;
mod workloads;
mod yardstick;

use driver::RunOptions;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    workload: workloads::Workload,
    run: RunOptions,
    out: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: fgl-benchmark --workload <{}> --seed N --seconds S --trace 0|1 \
         [--set FIELD=N]... [--scale X] [--plant 1] [--out DIR]",
        workloads::NAMES.join("|")
    )
}

fn parse() -> Result<Args, String> {
    let mut name = None;
    let mut run = RunOptions {
        seed: 1,
        seconds: 26.0,
        trace: false,
        scale: 1.0,
        plant: false,
    };
    let mut sets: Vec<(String, u64)> = Vec::new();
    let mut out = PathBuf::from("benchmark/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => run.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                run.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(run.seconds > 0.0 && run.seconds <= 3600.0) {
                    return Err(bad("between 0 and 3600"));
                }
            }
            "--trace" => run.trace = value.parse::<u8>().map_err(|_| bad("0 or 1"))? != 0,
            "--scale" => {
                run.scale = value.parse().map_err(|_| bad("a number"))?;
                if !(run.scale > 0.0 && run.scale <= 100.0) {
                    return Err(bad("between 0 and 100"));
                }
            }
            "--plant" => run.plant = value != "0",
            "--out" => out = PathBuf::from(value),
            "--set" => {
                let (field, n) = value.split_once('=').ok_or(bad("FIELD=N"))?;
                sets.push((field.into(), n.parse().map_err(|_| bad("FIELD=N"))?));
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let mut workload = workloads::by_name(&name).ok_or(format!("unknown workload `{name}`"))?;
    for (field, n) in sets {
        workloads::apply_override(&mut workload, &field, n)?;
    }
    workload.cfg.validate().map_err(|e| e.to_string())?;
    Ok(Args { workload, run, out })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fgl-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (w, opts) = (&args.workload, &args.run);

    // Socket files of the uds workload go where `std::env::temp_dir`
    // points: keep them inside the checkout. Set before any thread exists.
    let tmp = args.out.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("fgl-benchmark: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    std::env::set_var("TMPDIR", &tmp);
    let pinned_cpu = if w.pin { sys::pin_to_one_cpu() } else { None };
    if yardstick::read().checksum != yardstick::CHECKSUM {
        eprintln!("fgl-benchmark: the yardstick's reference work does not compute what it must");
        return ExitCode::from(2);
    }

    let probes = if opts.trace {
        let batch = if opts.scale < 1.0 { 2 } else { 20 };
        probes::run_all(Duration::from_millis(batch))
    } else {
        Vec::new()
    };
    let mut data = driver::run(w, opts, started);
    data.pinned_cpu = pinned_cpu;
    if data.peak_rss_mib == 0.0 {
        data.peak_rss_mib = sys::peak_rss_mib();
    }

    let metrics = if opts.trace {
        report::per_layer(w, &data, probes)
    } else {
        report::end_to_end(w, &data)
    };
    let attempted: u64 =
        data.other.attempted + data.bursts.iter().map(|b| b.tally.attempted).sum::<u64>();
    let failed: u64 = data.other.failed + data.bursts.iter().map(|b| b.tally.failed).sum::<u64>();
    let complete = !data.bursts.is_empty() && !data.drills.is_empty();
    let correct = data.mismatches == 0 && complete;

    let stem = format!("{}-seed{}-trace{}", w.name, opts.seed, opts.trace as u8);
    let result = report::result_line(correct, attempted, failed, &metrics);
    let details = report::details_json(w, &data, opts, &result);
    if let Err(e) = std::fs::write(args.out.join(format!("{stem}.json")), details) {
        eprintln!("fgl-benchmark: details not written: {e}");
    }
    if let Some(t) = &data.tracer {
        if let Err(e) = std::fs::write(args.out.join(format!("{stem}-spans.json")), t.chrome_json())
        {
            eprintln!("fgl-benchmark: span dump not written: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);

    let samples: u64 = data.bursts.iter().map(|b| b.tally.hist.count()).sum();
    eprintln!(
        "{}: {} bursts, {} drill pairs, {} latency samples, {} mismatches, {} failed of {} \
         attempted, pinned to {:?}, round loop {:.1} s, total {:.1} s, {:.0} MiB resident",
        w.name,
        data.bursts.len(),
        data.drills.len(),
        samples,
        data.mismatches,
        failed,
        attempted,
        pinned_cpu,
        data.round_loop_s,
        started.elapsed().as_secs_f64(),
        sys::rss_mib()
    );
    for (name, value) in &metrics {
        eprintln!("  {name:<34} {value:>16.4} {}", report::unit_of(name));
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
