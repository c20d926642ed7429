//! **E15 — Causal tracing: critical-path attribution vs measured
//! latency** (tentpole for the tracing layer).
//!
//! Claim: the span assembler's exclusive critical-path breakdown is an
//! *accounting identity*, not an estimate — per-kind budgets sum exactly
//! to each root `Commit` span, and the root spans agree with the
//! independently measured `commit_us` histogram (same interval, two
//! instruments) to within ~10% at the median. And tracing must be free
//! when off: the untraced cells run with span emission disabled and feed
//! the CI latency gate, so any always-on overhead shows up as a
//! regression.
//!
//! Sweep: tracing {off, on} at a fixed client count on the harness's
//! green-task driver, PRIVATE workload (abort-free, so every `Commit`
//! root corresponds to one histogram observation). The untraced cell runs
//! first — span emission is process-wide once enabled.

use fgl::System;
use fgl_bench::{banner, experiment_config, quick_mode, MetricsEmitter};
use fgl_obs::trace;
use fgl_sim::harness::{run_workload, HarnessOptions, RunReport};
use fgl_sim::setup::populate;
use fgl_sim::table::{f1, Table};
use fgl_sim::workload::{WorkloadKind, WorkloadSpec};

const CLIENTS: usize = 4;

/// The driver every row ran on, emitted as the `scheduler` param so the
/// rows keep their sweep-point keys in `ci/latency_baseline.json` and the
/// trace file its `e15_event` name.
const DRIVER: &str = "event";

fn spec_for() -> WorkloadSpec {
    let mut s = WorkloadSpec::new(WorkloadKind::Private);
    s.pages = CLIENTS * 8;
    s.objects_per_page = 8;
    s.ops_per_txn = 4;
    s.write_fraction = 0.5;
    s
}

fn txns_per_client() -> usize {
    if quick_mode() {
        30
    } else {
        120
    }
}

struct Cell {
    report: RunReport,
    /// Traced cells only: assembled trace of exactly this run's events.
    trace: Option<trace::TraceReport>,
}

fn run_cell(traced: bool) -> Cell {
    let mut cfg = experiment_config();
    if traced {
        // Big rings: the whole run fits, so `ring_dropped_events` stays 0
        // (the metrics validator checks it).
        cfg = cfg.with_obs_ring_entries(1 << 16);
    }
    let sys = System::build(cfg, CLIENTS).expect("build");
    trace::set_enabled(traced);
    let spec = spec_for();
    let layout = populate(sys.client(0), spec.pages, spec.objects_per_page, 32).expect("populate");
    let mut opts = HarnessOptions::new(spec, txns_per_client());
    opts.seed = 0xE15;
    // The run's worker threads exit, and their flight-recorder rings with
    // them, before it returns: capture the events while it runs.
    let capture = traced.then(fgl_obs::CaptureSink::install);
    let report = run_workload(&sys, &layout, None, &opts).expect("run");
    let trace = capture.map(|(sink, _guard)| trace::assemble(&sink.drain()));
    trace::set_enabled(false);
    Cell { report, trace }
}

/// Median of the root `Commit` span durations.
fn budget_p50(tr: &trace::TraceReport) -> u64 {
    let mut totals: Vec<u64> = tr.commits.iter().map(|c| c.total_us).collect();
    totals.sort_unstable();
    if totals.is_empty() {
        0
    } else {
        totals[totals.len() / 2]
    }
}

fn gap_pct(budget: u64, measured: u64) -> f64 {
    if measured == 0 {
        return 0.0;
    }
    (budget as f64 - measured as f64).abs() * 100.0 / measured as f64
}

fn main() {
    banner(
        "E15: trace attribution vs measured commit latency",
        "per-span critical-path budgets sum to the root commit span and agree \
         with independently measured commit latency; tracing off costs nothing \
         (PRIVATE workload)",
    );
    // Untraced first: enabling span emission is process-wide.
    let cells = [false, true];

    let mut emitter = MetricsEmitter::new("e15_trace_attribution");
    let mut table = Table::new(&[
        "traced",
        "commits/s",
        "p50 commit us",
        "budget p50 us",
        "gap %",
        "spans",
        "orphans",
    ]);
    let mut worst_gap = 0.0f64;
    for traced in cells {
        let mut cell = run_cell(traced);
        // Exact median of the harness's per-commit wall-clock timings —
        // the same interval the root `Commit` span wraps (the commit_us
        // histogram would add log2-bucket quantization to the compare).
        let measured_p50 = cell.report.latency_us(50.0);
        let (budget, gap, spans, orphans) = match &cell.trace {
            Some(tr) => {
                let budget = budget_p50(tr);
                let gap = gap_pct(budget, measured_p50);
                worst_gap = worst_gap.max(gap);
                // Fold the trace summary into the emitted counters so the
                // JSON validator can gate on it.
                let m = &mut cell.report.metrics;
                m.set_counter("e15_budget_p50_us", budget);
                m.set_counter("e15_measured_p50_us", measured_p50);
                m.set_counter("e15_budget_gap_pct_x100", (gap * 100.0).round() as u64);
                m.set_counter("trace_commits", tr.commits.len() as u64);
                m.set_counter("trace_spans", tr.spans.len() as u64);
                m.set_counter("trace_orphan_opens", tr.orphan_opens as u64);
                m.set_counter("trace_orphan_closes", tr.orphan_closes as u64);
                for kind in fgl_obs::SpanKind::ALL {
                    let n = tr.spans.iter().filter(|s| s.kind == kind).count();
                    m.set_counter(&format!("trace_span_{}_count", kind.tag()), n as u64);
                }
                for (tag, us) in tr.bucket_totals() {
                    m.set_counter(&format!("trace_budget_{tag}_us"), us);
                }
                (
                    budget,
                    gap,
                    tr.spans.len(),
                    tr.orphan_opens + tr.orphan_closes,
                )
            }
            None => (0, 0.0, 0, 0),
        };
        emitter.row(
            &[
                ("clients", CLIENTS.to_string()),
                ("scheduler", DRIVER.to_string()),
                ("traced", traced.to_string()),
            ],
            &cell.report.metrics,
        );
        table.row(vec![
            traced.to_string(),
            f1(cell.report.throughput()),
            measured_p50.to_string(),
            if traced {
                budget.to_string()
            } else {
                "-".into()
            },
            if traced { f1(gap) } else { "-".into() },
            spans.to_string(),
            orphans.to_string(),
        ]);
        if let Some(tr) = &cell.trace {
            let label = format!("e15_{DRIVER}");
            if let Some(path) = trace::write_chrome_trace(tr, &label) {
                println!("chrome trace written: {}", path.display());
            }
            // The accounting identity itself: per-kind buckets sum to
            // exactly the root span's duration on every commit.
            for c in &tr.commits {
                let sum: u64 = c.buckets.values().sum();
                assert_eq!(
                    sum, c.total_us,
                    "critical-path buckets must sum to the root duration"
                );
            }
        }
    }
    table.print();

    println!();
    println!(
        "worst budget-vs-measured p50 gap: {}% (claim: within ~10%)",
        f1(worst_gap)
    );
    assert!(
        worst_gap <= 10.0,
        "budget p50 diverged from measured commit p50 by {worst_gap:.1}%"
    );
    emitter.finish();
}
