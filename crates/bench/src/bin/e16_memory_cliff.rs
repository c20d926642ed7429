//! **E16 — Memory cliff: how many clients fit under the event
//! scheduler?** (tentpole for stack pooling + lazy client state).
//!
//! Claim: with pooled green-task stacks (acquired lazily at first
//! activation, recycled on completion), lazily-initialised per-client
//! runtime state and an `Arc`-shared `SystemConfig`, the event driver
//! scales through repeated client doublings without the resident-set
//! cliff the eager design hit: pre-PR every spawned task committed a
//! full stack up front and every `ClientRuntime` built its maps and WAL
//! buffers at construction, so RSS grew linearly with *configured*
//! clients rather than *active* ones.
//!
//! Sweep: clients doubling geometrically from 1k (to 64k by default,
//! `FGL_E16_MAX_CLIENTS` to push further on a big box), event scheduler
//! only, PRIVATE workload with one private page per client, zero
//! simulated latency (pure algorithmic/memory cost). Per cell: commits/s,
//! p95 commit latency, peak RSS, RSS growth per client, stack-pool hit
//! rate and the `sched_stacks_*` counters. The sweep stops early —
//! before the driver OOMs — if a cell's RSS-per-client or p95 latency
//! blows up versus the first cell (the "cliff" the experiment is named
//! for); reaching the last cell without tripping the rule is the pass.
//!
//! **Each cell runs in its own child process** (a re-exec of this binary
//! with `FGL_E16_CELL` set). Running six cells in one process let heap
//! fragmentation from earlier cells' build/teardown churn slow later
//! cells ~3x — a real effect, but a property of the *harness* process,
//! not of the scheduler under test. Isolation also gives every cell a
//! clean RSS baseline.

use fgl::{System, SystemConfig};
use fgl_bench::{banner, quick_mode, MetricsEmitter};
use fgl_obs::{current_rss_bytes, RssSampler};
use fgl_sim::harness::{run_workload, HarnessOptions};
use fgl_sim::setup::populate_partitioned;
use fgl_sim::table::{f1, Table};
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};
use std::time::Duration;

/// One private page per client: the footprint that actually has to
/// scale. Small pages keep the populated database proportional to the
/// fleet without dominating RSS themselves.
fn spec_for(clients: usize) -> WorkloadSpec {
    let mut s = WorkloadSpec::new(WorkloadKind::Private);
    s.pages = clients.max(32);
    s.objects_per_page = 4;
    s.ops_per_txn = 2;
    s.write_fraction = 0.5;
    s
}

fn cfg_for(clients: usize) -> SystemConfig {
    // Zero-latency base: no simulated disk/net stalls, so tasks mostly
    // run to completion and the live-stack set stays near the worker
    // count — the regime where the stack pool should be hitting ~always.
    SystemConfig {
        page_size: 512,
        client_cache_pages: 4,
        server_cache_pages: clients.max(256),
        // Partitioned populate leaves every client owning its region, so
        // no cold-start callback storm; the timeout only has to cover
        // scheduler backlog at the biggest cells.
        lock_timeout: Duration::from_secs(30),
        ..SystemConfig::default()
    }
}

/// Transactions per client: **constant across cells**, so per-client
/// fixed costs (task spawn, stack acquire, lazy-init warm-up, cold
/// faults on client state) amortise identically at every fleet size and
/// the throughput column compares like with like. A shrinking per-client
/// budget would read as a latency cliff that is really just thinner
/// amortisation.
fn txns_for(_clients: usize) -> usize {
    if quick_mode() {
        8
    } else {
        16
    }
}

/// The per-cell figures a child process reports back to the sweep.
#[derive(Clone, Debug, Default)]
struct CellOut {
    clients: usize,
    txns_per_client: usize,
    commits_per_s: f64,
    p95_us: u64,
    peak_rss: u64,
    rss_per_client: u64,
    hit_pct: u64,
    stacks_allocated: u64,
    rows: Vec<String>,
}

/// Run one cell in this process and report it (child mode).
fn run_cell(clients: usize) -> CellOut {
    let rss_before = current_rss_bytes();
    let sampler = RssSampler::start(Duration::from_millis(2));
    let sys = System::build(cfg_for(clients), clients).expect("build");
    let spec = spec_for(clients);
    let loaders: Vec<_> = (0..clients).map(|i| sys.client(i)).collect();
    let layout =
        populate_partitioned(&loaders, spec.pages, spec.objects_per_page, 32).expect("populate");
    drop(loaders);
    let mut opts = HarnessOptions::new(spec, txns_for(clients));
    opts.seed = 0xE16;
    opts.sched_stack_kb = 64;
    let report = run_workload(&sys, &layout, None, &opts).expect("run");
    drop(sys);
    let peak_rss = sampler.stop();
    // Growth attributable to this cell (build + populate + run), per
    // configured client; the cell owns its process, so the baseline is
    // just binary + runtime startup.
    let rss_per_client = peak_rss.saturating_sub(rss_before) / clients as u64;
    let get = |k: &str| report.metrics.counters.get(k).copied().unwrap_or(0);
    let (reused, allocated) = (get("sched_stacks_reused"), get("sched_stacks_allocated"));
    let hit_pct = (reused * 100).checked_div(reused + allocated).unwrap_or(0);
    let mut emitter = MetricsEmitter::new("e16_memory_cliff");
    emitter.row(
        &[
            ("clients", clients.to_string()),
            ("scheduler", "event".to_string()),
            ("txns_per_client", txns_for(clients).to_string()),
            ("driver_threads", report.driver_threads.to_string()),
            ("peak_rss_bytes", peak_rss.to_string()),
            ("rss_per_client_bytes", rss_per_client.to_string()),
            ("stack_pool_hit_pct", hit_pct.to_string()),
        ],
        &report.metrics,
    );
    CellOut {
        clients,
        txns_per_client: txns_for(clients),
        commits_per_s: report.throughput(),
        p95_us: report.latency_us(95.0),
        peak_rss,
        rss_per_client,
        hit_pct,
        stacks_allocated: allocated,
        rows: emitter.rows_json().to_vec(),
    }
}

/// Child mode: run the one cell named by `FGL_E16_CELL` and print the
/// result to stdout for the parent — metrics rows between `@row` fences,
/// then one `@cell` summary line.
fn child_main(clients: usize) -> ! {
    let out = run_cell(clients);
    for row in &out.rows {
        println!("@row-begin");
        println!("{row}");
        println!("@row-end");
    }
    println!(
        "@cell clients={} txns_per_client={} commits_per_s={} p95_us={} peak_rss={} \
         rss_per_client={} hit_pct={} stacks_allocated={}",
        out.clients,
        out.txns_per_client,
        out.commits_per_s,
        out.p95_us,
        out.peak_rss,
        out.rss_per_client,
        out.hit_pct,
        out.stacks_allocated
    );
    std::process::exit(0);
}

/// Parent mode: re-exec self for one cell and parse its report.
fn spawn_cell(clients: usize) -> CellOut {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = std::process::Command::new(exe);
    cmd.env("FGL_E16_CELL", clients.to_string());
    if quick_mode() {
        cmd.arg("--quick");
    }
    let out = cmd.output().expect("spawn cell child");
    if !out.status.success() {
        panic!(
            "cell {clients} child failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut cell = CellOut::default();
    let mut in_row = false;
    let mut row = String::new();
    for line in stdout.lines() {
        match line {
            "@row-begin" => {
                in_row = true;
                row.clear();
            }
            "@row-end" => {
                in_row = false;
                cell.rows.push(row.trim_end().to_string());
            }
            l if in_row => {
                row.push_str(l);
                row.push('\n');
            }
            l if l.starts_with("@cell ") => {
                for kv in l["@cell ".len()..].split_whitespace() {
                    let (k, v) = kv.split_once('=').expect("@cell key=value");
                    match k {
                        "clients" => cell.clients = v.parse().unwrap(),
                        "txns_per_client" => cell.txns_per_client = v.parse().unwrap(),
                        "commits_per_s" => cell.commits_per_s = v.parse().unwrap(),
                        "p95_us" => cell.p95_us = v.parse().unwrap(),
                        "peak_rss" => cell.peak_rss = v.parse().unwrap(),
                        "rss_per_client" => cell.rss_per_client = v.parse().unwrap(),
                        "hit_pct" => cell.hit_pct = v.parse().unwrap(),
                        "stacks_allocated" => cell.stacks_allocated = v.parse().unwrap(),
                        _ => {}
                    }
                }
            }
            _ => {}
        }
    }
    assert!(cell.clients == clients, "child reported no @cell line");
    cell
}

fn max_clients() -> usize {
    if let Ok(v) = std::env::var("FGL_E16_MAX_CLIENTS") {
        return v.parse().expect("FGL_E16_MAX_CLIENTS must be an integer");
    }
    if quick_mode() {
        4096
    } else {
        65_536
    }
}

/// First cell of the sweep (default 1k); `FGL_E16_START_CLIENTS` lets a
/// debugging run jump straight to a suspect cell.
fn start_clients() -> usize {
    if let Ok(v) = std::env::var("FGL_E16_START_CLIENTS") {
        return v.parse().expect("FGL_E16_START_CLIENTS must be an integer");
    }
    1024
}

fn main() {
    if let Ok(v) = std::env::var("FGL_E16_CELL") {
        child_main(v.parse().expect("FGL_E16_CELL must be an integer"));
    }
    banner(
        "E16: memory cliff, client doublings under the event scheduler",
        "pooled task stacks + lazy per-client state + Arc-shared config; \
         sweep doubles clients until RSS/client or p95 latency blows up \
         (PRIVATE workload, zero simulated latency, one process per cell)",
    );

    let mut emitter = MetricsEmitter::new("e16_memory_cliff");
    let mut table = Table::new(&[
        "clients",
        "txns/cl",
        "commits/s",
        "p95 commit us",
        "peak rss mb",
        "rss/client kb",
        "pool hit %",
        "stacks alloc",
    ]);

    let mut first: Option<(u64, u64)> = None; // (rss_per_client, p95)
    let mut cliff: Option<(usize, String)> = None;
    let mut last: Option<CellOut> = None;
    let mut clients = start_clients();
    while clients <= max_clients() {
        let cell = spawn_cell(clients);
        for row in &cell.rows {
            emitter.raw_row(row.clone());
        }
        table.row(vec![
            clients.to_string(),
            cell.txns_per_client.to_string(),
            f1(cell.commits_per_s),
            cell.p95_us.to_string(),
            (cell.peak_rss >> 20).to_string(),
            (cell.rss_per_client >> 10).to_string(),
            cell.hit_pct.to_string(),
            cell.stacks_allocated.to_string(),
        ]);
        // Cliff rule: a cell whose per-client RSS growth or p95 commit
        // latency is >8x the first cell's means the flat-cost story broke
        // somewhere between the previous doubling and this one.
        let (rss0, p95_0) = *first.get_or_insert((cell.rss_per_client.max(1), cell.p95_us.max(1)));
        if cell.rss_per_client > 8 * rss0 {
            cliff = Some((
                clients,
                format!(
                    "rss/client {} KiB > 8x first-cell {} KiB",
                    cell.rss_per_client >> 10,
                    rss0 >> 10
                ),
            ));
        } else if cell.p95_us > 8 * p95_0 {
            cliff = Some((
                clients,
                format!("p95 {} us > 8x first-cell {p95_0} us", cell.p95_us),
            ));
        }
        last = Some(cell);
        if cliff.is_some() {
            break;
        }
        clients *= 2;
    }
    table.print();

    println!();
    match &cliff {
        Some((at, why)) => println!("memory cliff at {at} clients: {why}"),
        None => {
            if let Some(cell) = &last {
                println!(
                    "no cliff through {} clients: rss/client {} KiB, pool hit rate {}%, \
                     peak rss {} MiB",
                    cell.clients,
                    cell.rss_per_client >> 10,
                    cell.hit_pct,
                    cell.peak_rss >> 20
                );
            }
        }
    }
    emitter.finish();
}
