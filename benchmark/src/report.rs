//! From a run's rounds to the numbers it prints: the end-to-end metrics
//! (`--trace 0`), the per-layer metrics (`--trace 1`), the result line of
//! the contract, and a details file with every round, raw and corrected.

use crate::driver::{BurstRound, Counters, RunData, RunOptions, C};
use crate::trace::{Fold, Kind};
use crate::workloads::Workload;
use crate::{sys, yardstick};
use std::fmt::Write;

/// End-to-end metrics, in the order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("commits_per_s", "1/s"),
    ("txn_p50_us", "us"),
    ("txn_p95_us", "us"),
    ("cpu_us_per_commit", "us"),
    ("msgs_per_commit", "count"),
    ("net_bytes_per_commit", "B"),
    ("log_bytes_per_commit", "B"),
    ("peak_rss_mib", "MiB"),
    ("server_restart_ms", "ms"),
    ("client_recovery_ms", "ms"),
];

pub const PROBE_NAMES: [&str; 26] = [
    "storage.page_read_ns",
    "storage.page_overwrite_ns",
    "storage.page_insert_ns",
    "storage.page_codec_ns",
    "storage.merge_16x64_ns",
    "storage.bufferpool_hit_ns",
    "storage.bufferpool_miss_evict_ns",
    "wal.append_ns",
    "wal.force_ns",
    "wal.codec_ns",
    "wal.bytes_per_64B_update",
    "locks.glm_object_lock_ns",
    "locks.glm_shared_grant_ns",
    "locks.llm_cached_hit_ns",
    "locks.waitgraph_edge_ns",
    "net.frame_encode_ns",
    "net.frame_decode_ns",
    "net.frame_page_encode_ns",
    "net.frame_page_decode_ns",
    "net.router_route_ns",
    "sched.spawn_ns",
    "sched.switch_ns",
    "sched.timer_insert_fire_ns",
    "obs.ring_push_ns",
    "obs.hist_record_ns",
    "obs.event_off_ns",
];

/// Per-layer metrics of the traced run, after the probes.
pub const TRACED: [(&str, &str); 46] = [
    ("client.begin_self_ns", "ns"),
    ("client.read_self_ns", "ns"),
    ("client.write_self_ns", "ns"),
    ("client.commit_self_ns", "ns"),
    ("client.commit_p50_us", "us"),
    ("client.commit_p95_us", "us"),
    ("client.callback_ns", "ns"),
    ("client.callbacks_per_commit", "count"),
    ("client.cache_hit_ratio", "ratio"),
    ("server.lock_ns", "ns"),
    ("server.fetch_page_ns", "ns"),
    ("server.ship_page_ns", "ns"),
    ("server.callback_complete_ns", "ns"),
    ("server.force_page_ns", "ns"),
    ("server.lock_per_commit", "count"),
    ("server.fetch_per_commit", "count"),
    ("server.ship_per_commit", "count"),
    ("server.bufferpool_hit_ratio", "ratio"),
    ("server.restart_units", "count"),
    ("server.restart_ms_per_unit", "ms"),
    ("wal.store_append_ns", "ns"),
    ("wal.store_force_ns", "ns"),
    ("wal.forces_per_commit", "count"),
    ("wal.group_piggyback_ratio", "ratio"),
    ("wal.log_bytes_per_user_byte", "ratio"),
    ("storage.disk_read_ns", "ns"),
    ("storage.disk_write_ns", "ns"),
    ("storage.disk_reads_per_commit", "count"),
    ("storage.disk_writes_per_commit", "count"),
    ("storage.merges_per_commit", "count"),
    ("locks.llm_local_grant_ratio", "ratio"),
    ("locks.aborts_per_commit", "count"),
    ("locks.deescalations_per_commit", "count"),
    ("net.rpc_rtt_us", "us"),
    ("net.wire_over_nominal_bytes", "ratio"),
    ("sched.switches_per_commit", "count"),
    ("sched.timer_fires_per_commit", "count"),
    ("sched.runnable_wait_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_closure_pct", "%"),
    ("bench.txn_p99_us", "us"),
    ("bench.host_speed_factor", "ratio"),
    ("bench.raw_commits_per_s", "1/s"),
    ("bench.raw_txn_p50_us", "us"),
    ("bench.yardstick_r", "ratio"),
    ("bench.rss_at_exit_mib", "MiB"),
];

pub fn unit_of(name: &str) -> &'static str {
    if let Some((_, u)) = END_TO_END.iter().chain(&TRACED).find(|(n, _)| *n == name) {
        return u;
    }
    debug_assert!(PROBE_NAMES.contains(&name), "unknown metric {name}");
    match name {
        "wal.bytes_per_64B_update" => "B",
        _ => "ns",
    }
}

pub type Metric = (&'static str, f64);

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn per(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    if x.len() < 3 {
        return 0.0;
    }
    let (mx, my) = (x.iter().sum::<f64>() / n, y.iter().sum::<f64>() / n);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for (a, b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// One burst's timings, raw and host-speed corrected.
pub struct BurstView {
    pub f: f64,
    pub raw_commits_per_s: f64,
    pub commits_per_s: f64,
    pub raw_p50_us: f64,
    pub p50_us: f64,
    pub raw_p95_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub raw_cpu_us: f64,
    pub cpu_us: f64,
    pub raw_setup_s: f64,
    pub setup_s: f64,
}

/// CPU-paced durations are divided by the round's host-speed factor and
/// rates multiplied; what a latency-injecting configuration paces is
/// reported as read. CPU time per commit is CPU-paced everywhere.
pub fn view(w: &Workload, b: &BurstRound) -> BurstView {
    let wall_f = if w.cpu_paced() { b.f } else { 1.0 };
    let setup_f = if w.cpu_paced() { b.setup_f } else { 1.0 };
    let secs = b.elapsed_ns as f64 / 1e9;
    let raw_rate = if secs > 0.0 {
        b.tally.commits as f64 / secs
    } else {
        0.0
    };
    let q = |q: f64| b.tally.hist.quantile(q) / 1e3;
    let raw_cpu_us = per(b.cpu_ns, b.tally.commits) / 1e3;
    BurstView {
        f: b.f,
        raw_commits_per_s: raw_rate,
        commits_per_s: raw_rate * wall_f,
        raw_p50_us: q(0.5),
        p50_us: q(0.5) / wall_f,
        raw_p95_us: q(0.95),
        p95_us: q(0.95) / wall_f,
        p99_us: q(0.99) / wall_f,
        raw_cpu_us,
        cpu_us: raw_cpu_us / b.f,
        raw_setup_s: b.setup_s,
        setup_s: b.setup_s / setup_f,
    }
}

struct Sums {
    commits: u64,
    aborts: u64,
    reads: u64,
    writes: u64,
    counters: Counters,
}

fn sums<'a>(bursts: impl Iterator<Item = &'a BurstRound>) -> Sums {
    let mut s = Sums {
        commits: 0,
        aborts: 0,
        reads: 0,
        writes: 0,
        counters: Counters::default(),
    };
    for b in bursts {
        s.commits += b.tally.commits;
        s.aborts += b.tally.aborts;
        s.reads += b.tally.reads;
        s.writes += b.tally.writes;
        s.counters.add(&b.counters);
    }
    s
}

fn drill_ms(w: &Workload, ms: f64, f: f64) -> f64 {
    if w.cpu_paced() {
        ms / f
    } else {
        ms
    }
}

/// The eleven end-to-end metrics. Timings are the median round, counts
/// are summed over all bursts and divided by all their commits.
pub fn end_to_end(w: &Workload, d: &RunData) -> Vec<Metric> {
    let views: Vec<BurstView> = d.bursts.iter().map(|b| view(w, b)).collect();
    let med = |f: fn(&BurstView) -> f64| median(views.iter().map(f).collect());
    let s = sums(d.bursts.iter());
    let c = &s.counters;
    vec![
        ("setup_s", med(|v| v.setup_s)),
        ("commits_per_s", med(|v| v.commits_per_s)),
        ("txn_p50_us", med(|v| v.p50_us)),
        ("txn_p95_us", med(|v| v.p95_us)),
        ("cpu_us_per_commit", med(|v| v.cpu_us)),
        ("msgs_per_commit", per(c.get(C::Msgs), s.commits)),
        ("net_bytes_per_commit", per(c.get(C::NetBytes), s.commits)),
        ("log_bytes_per_commit", per(c.get(C::LogBytes), s.commits)),
        ("peak_rss_mib", d.peak_rss_mib),
        (
            "server_restart_ms",
            median(
                d.drills
                    .iter()
                    .map(|r| drill_ms(w, r.server_restart_ms, r.server_f))
                    .collect(),
            ),
        ),
        (
            "client_recovery_ms",
            median(
                d.drills
                    .iter()
                    .map(|r| drill_ms(w, r.client_recovery_ms, r.client_f))
                    .collect(),
            ),
        ),
    ]
}

/// The per-layer metrics of a traced run: the probes, then what the
/// decorators and the product's own counters saw during the bursts.
pub fn per_layer(w: &Workload, d: &RunData, probes: Vec<Metric>) -> Vec<Metric> {
    let (txns, loose) = match &d.tracer {
        Some(t) => t.totals(),
        None => (Fold::default(), Fold::default()),
    };
    let mut all = txns.clone();
    all.merge(&loose);
    let plain: Vec<&BurstRound> = d.bursts.iter().filter(|b| !b.decorated).collect();
    let decorated: Vec<&BurstRound> = d.bursts.iter().filter(|b| b.decorated).collect();
    let every = sums(d.bursts.iter());
    let dec = sums(decorated.iter().copied());
    let c = &every.counters;
    let plain_views: Vec<BurstView> = plain.iter().map(|b| view(w, b)).collect();
    let dec_views: Vec<BurstView> = decorated.iter().map(|b| view(w, b)).collect();
    let med = |vs: &[BurstView], f: fn(&BurstView) -> f64| median(vs.iter().map(f).collect());
    let (callbacks, deescalations) = d.tracer.as_ref().map_or((0, 0), |t| {
        use std::sync::atomic::Ordering::Relaxed;
        (t.callbacks.load(Relaxed), t.deescalations.load(Relaxed))
    });
    let fetches = all.count(Kind::SrvFetch);
    let plain_rate = med(&plain_views, |v| v.commits_per_s);
    let dec_rate = med(&dec_views, |v| v.commits_per_s);
    let restart_per_unit = median(
        d.drills
            .iter()
            .map(|r| drill_ms(w, r.server_restart_ms, r.server_f) / r.restart_units.max(1) as f64)
            .collect(),
    );
    let x: Vec<f64> = plain.iter().map(|b| b.f).collect();
    let y: Vec<f64> = plain
        .iter()
        .map(|b| per(b.elapsed_ns, b.tally.commits))
        .collect();

    let mut out = probes;
    out.extend([
        ("client.begin_self_ns", all.mean_self_ns(Kind::Begin)),
        ("client.read_self_ns", all.mean_self_ns(Kind::Read)),
        ("client.write_self_ns", all.mean_self_ns(Kind::Write)),
        ("client.commit_self_ns", all.mean_self_ns(Kind::Commit)),
        ("client.commit_p50_us", all.commit_hist.quantile(0.5) / 1e3),
        ("client.commit_p95_us", all.commit_hist.quantile(0.95) / 1e3),
        ("client.callback_ns", all.mean_total_ns(Kind::Callback)),
        ("client.callbacks_per_commit", per(callbacks, dec.commits)),
        (
            "client.cache_hit_ratio",
            1.0 - per(c.get(C::ServerFetches), every.reads + every.writes),
        ),
        ("server.lock_ns", all.mean_total_ns(Kind::SrvLock)),
        ("server.fetch_page_ns", all.mean_total_ns(Kind::SrvFetch)),
        ("server.ship_page_ns", all.mean_total_ns(Kind::SrvShip)),
        (
            "server.callback_complete_ns",
            all.mean_total_ns(Kind::SrvCbComplete),
        ),
        (
            "server.force_page_ns",
            all.mean_total_ns(Kind::SrvForcePage),
        ),
        (
            "server.lock_per_commit",
            per(all.count(Kind::SrvLock), dec.commits),
        ),
        ("server.fetch_per_commit", per(fetches, dec.commits)),
        (
            "server.ship_per_commit",
            per(all.count(Kind::SrvShip), dec.commits),
        ),
        (
            "server.bufferpool_hit_ratio",
            1.0 - per(all.count(Kind::DiskRead), fetches).min(1.0),
        ),
        (
            "server.restart_units",
            median(d.drills.iter().map(|r| r.restart_units as f64).collect()),
        ),
        ("server.restart_ms_per_unit", restart_per_unit),
        ("wal.store_append_ns", all.mean_total_ns(Kind::LogAppend)),
        ("wal.store_force_ns", all.mean_total_ns(Kind::LogForce)),
        (
            "wal.forces_per_commit",
            per(c.get(C::LogForces), every.commits),
        ),
        (
            "wal.group_piggyback_ratio",
            per(
                c.get(C::CommitsPiggybacked),
                c.get(C::CommitsForced) + c.get(C::CommitsPiggybacked),
            ),
        ),
        (
            "wal.log_bytes_per_user_byte",
            per(
                c.get(C::LogBytes),
                every.writes * crate::opgen::OBJECT_BYTES as u64,
            ),
        ),
        ("storage.disk_read_ns", all.mean_total_ns(Kind::DiskRead)),
        ("storage.disk_write_ns", all.mean_total_ns(Kind::DiskWrite)),
        (
            "storage.disk_reads_per_commit",
            per(all.count(Kind::DiskRead), dec.commits),
        ),
        (
            "storage.disk_writes_per_commit",
            per(all.count(Kind::DiskWrite), dec.commits),
        ),
        (
            "storage.merges_per_commit",
            per(c.get(C::Merges), every.commits),
        ),
        (
            "locks.llm_local_grant_ratio",
            per(
                c.get(C::LocalGrants),
                c.get(C::LocalGrants) + c.get(C::GlobalLockRequests),
            ),
        ),
        ("locks.aborts_per_commit", per(every.aborts, every.commits)),
        (
            "locks.deescalations_per_commit",
            per(deescalations, dec.commits),
        ),
        ("net.rpc_rtt_us", all.mean_total_ns(Kind::RpcPage) / 1e3),
        (
            "net.wire_over_nominal_bytes",
            per(c.get(C::WireBytes), c.get(C::NetBytes)),
        ),
        (
            "sched.switches_per_commit",
            per(c.get(C::SchedSwitches), every.commits),
        ),
        (
            "sched.timer_fires_per_commit",
            per(c.get(C::SchedTimerFires), every.commits),
        ),
        (
            "sched.runnable_wait_share",
            per(
                dec.counters.get(C::SchedRunnableWaitUs) * 1_000,
                txns.root_ns,
            ),
        ),
        (
            "bench.trace_overhead_pct",
            if plain_rate > 0.0 {
                (plain_rate - dec_rate) / plain_rate * 100.0
            } else {
                0.0
            },
        ),
        (
            "bench.span_closure_pct",
            per(txns.closed_ns, txns.root_ns) * 100.0,
        ),
        ("bench.txn_p99_us", med(&plain_views, |v| v.p99_us)),
        (
            "bench.host_speed_factor",
            median(d.bursts.iter().map(|b| b.f).collect()),
        ),
        (
            "bench.raw_commits_per_s",
            med(&plain_views, |v| v.raw_commits_per_s),
        ),
        ("bench.raw_txn_p50_us", med(&plain_views, |v| v.raw_p50_us)),
        ("bench.yardstick_r", pearson(&x, &y)),
        ("bench.rss_at_exit_mib", sys::rss_mib()),
    ]);
    out
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The contract's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            num(*value),
            unit_of(name)
        );
    }
    s.push_str("}}");
    s
}

/// Everything a run saw, round by round: what the README's tables and the
/// yardstick study are computed from.
pub fn details_json(w: &Workload, d: &RunData, opts: &RunOptions, result_line: &str) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"workload\": \"{}\", \"seed\": {},",
        w.name, opts.seed
    );
    // What makes this run something other than a run of the frozen
    // workload; `compare.py` and `ledger.py` refuse a file that carries any.
    let overrides: Vec<String> = w
        .overrides
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let _ = writeln!(
        s,
        "  \"overrides\": {{{}}}, \"scale\": {}, \"plant\": {},",
        overrides.join(", "),
        num(opts.scale),
        opts.plant
    );
    let _ = writeln!(s, "  \"result\": {result_line},");
    let _ = writeln!(
        s,
        "  \"cpu_paced\": {}, \"pinned_cpu\": {}, \"yard_nominal_ns\": {}, \"round_loop_s\": {},",
        w.cpu_paced(),
        d.pinned_cpu.map_or("null".into(), |c| c.to_string()),
        yardstick::YARD_NOMINAL_NS,
        num(d.round_loop_s)
    );
    let _ = writeln!(s, "  \"mismatches\": {},", d.mismatches);
    let mut errors = d.other.errors.clone();
    for b in &d.bursts {
        for (k, v) in &b.tally.errors {
            *errors.entry(k).or_default() += v;
        }
    }
    let errs: Vec<String> = errors
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let _ = writeln!(s, "  \"errors\": {{{}}},", errs.join(", "));
    s.push_str("  \"bursts\": [\n");
    for (i, b) in d.bursts.iter().enumerate() {
        let v = view(w, b);
        let mut parts = [0.0f64; yardstick::PARTS];
        for (k, slot) in parts.iter_mut().enumerate() {
            *slot = median(b.yard.iter().map(|r| r.parts[k] as f64).collect());
        }
        let parts: Vec<String> = parts
            .iter()
            .zip(yardstick::PART_NAMES)
            .map(|(p, n)| format!("\"{n}\": {}", num(*p)))
            .collect();
        let _ = write!(
            s,
            "    {{\"decorated\": {}, \"commits\": {}, \"aborts\": {}, \"failed\": {}, \
             \"samples\": {}, \"elapsed_ns\": {}, \"cpu_ns\": {}, \"f\": {}, \"setup_f\": {}, \
             \"yard_readings\": {}, \"yard_parts_ns\": {{{}}}, \
             \"raw_commits_per_s\": {}, \"commits_per_s\": {}, \"raw_txn_p50_us\": {}, \
             \"txn_p50_us\": {}, \"raw_txn_p95_us\": {}, \"txn_p95_us\": {}, \
             \"raw_cpu_us_per_commit\": {}, \
             \"cpu_us_per_commit\": {}, \"raw_setup_s\": {}, \"setup_s\": {}, \
             \"msgs\": {}, \"net_bytes\": {}, \"log_bytes\": {}}}",
            b.decorated,
            b.tally.commits,
            b.tally.aborts,
            b.tally.failed,
            b.tally.hist.count(),
            b.elapsed_ns,
            b.cpu_ns,
            num(v.f),
            num(b.setup_f),
            b.yard.len(),
            parts.join(", "),
            num(v.raw_commits_per_s),
            num(v.commits_per_s),
            num(v.raw_p50_us),
            num(v.p50_us),
            num(v.raw_p95_us),
            num(v.p95_us),
            num(v.raw_cpu_us),
            num(v.cpu_us),
            num(v.raw_setup_s),
            num(v.setup_s),
            b.counters.get(C::Msgs),
            b.counters.get(C::NetBytes),
            b.counters.get(C::LogBytes),
        );
        s.push_str(if i + 1 < d.bursts.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"drills\": [\n");
    for (i, r) in d.drills.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"raw_server_restart_ms\": {}, \"server_f\": {}, \"restart_units\": {}, \
             \"raw_client_recovery_ms\": {}, \"client_f\": {}}}",
            num(r.server_restart_ms),
            num(r.server_f),
            r.restart_units,
            num(r.client_recovery_ms),
            num(r.client_f)
        );
        s.push_str(if i + 1 < d.drills.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values inside the array that follows `"<key>":`.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let at = json.find(&format!("\"{key}\"")).expect("key present");
        let open = at + json[at..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split("\"name\"")
            .skip(1)
            .map(|rest| {
                let q1 = rest.find('"').expect("value") + 1;
                let q2 = q1 + rest[q1..].find('"').expect("value end");
                rest[q1..q2].to_string()
            })
            .collect()
    }

    #[test]
    fn printed_names_are_exactly_those_of_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let layer: Vec<&str> = PROBE_NAMES
            .iter()
            .copied()
            .chain(TRACED.iter().map(|(n, _)| *n))
            .collect();
        assert_eq!(names_in(&json, "per_layer"), layer);
        assert_eq!(names_in(&json, "workloads"), crate::workloads::NAMES);
        for n in e2e.iter().chain(&layer) {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            let u = unit_of(n);
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_s_shape() {
        let line = result_line(
            true,
            7,
            0,
            &[("setup_s", 0.25), ("commits_per_s", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"commits_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn median_and_pearson() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0, 8.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[8.0, 6.0, 4.0, 2.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x[..2], &x[..2]), 0.0);
    }
}
