//! **E4 — Client crash recovery cost** (§3.3).
//!
//! Claims: client crash recovery is handled *exclusively by the client*
//! from its private log; the DCT filter (Property 1) limits the pages
//! fetched from the server to those that may actually need redo; work
//! grows with the un-checkpointed log suffix.
//!
//! Sweep: updates executed since the last checkpoint (uncommitted work in
//! flight at the crash) → recovery time, records scanned/applied, pages
//! fetched. The `dct-filter` column shows pages the filter excluded.

// Experiment sweeps mutate one config field at a time; the
// default-then-assign pattern is the point.
#![allow(clippy::field_reassign_with_default)]

use fgl::RecoveryOptions;
use fgl::{System, SystemConfig};
use fgl_bench::{banner, MetricsEmitter};
use fgl_common::rng::DetRng;
use fgl_sim::setup::populate;
use fgl_sim::table::{f1, Table};

fn main() {
    banner(
        "E4: client crash recovery vs work since checkpoint",
        "recovery scans the private log once, from the last complete checkpoint \
         or its DPT's lowest RedoLSN if lower; only DCT-listed pages with \
         records to redo are fetched (Property 1)",
    );
    let sweep: Vec<usize> = if fgl_bench::quick_mode() {
        vec![50, 200]
    } else {
        vec![50, 200, 800, 2000, 5000]
    };
    let mut emitter = MetricsEmitter::new("e4_client_recovery");
    let mut table = Table::new(&[
        "updates since ckpt",
        "recovery ms",
        "records scanned",
        "records applied",
        "pages fetched",
        "pages in DPT",
        "losers",
    ]);
    for &updates in &sweep {
        let cfg = SystemConfig {
            client_checkpoint_every: u64::MAX / 2, // checkpoints only when asked
            client_cache_pages: 256,
            ..Default::default()
        };
        let sys = System::build(cfg, 2).expect("build");
        let pages = 64;
        let per_page = 16;
        let layout = populate(sys.client(0), pages, per_page, 64).expect("populate");
        let c = sys.client(0);
        // Flush the populate-era dirt so the sweep measures only the
        // post-checkpoint work, then anchor a checkpoint.
        c.harden().expect("harden");
        let mut rng = DetRng::new(0xE4);
        let mut buf = [0u8; 64];
        for i in 0..updates {
            let t = c.begin().expect("begin");
            let obj = layout.objects[rng.range_usize(0, layout.objects.len())];
            rng.fill_bytes(&mut buf);
            c.write(t, obj, &buf).expect("write");
            if i % 10 == 0 {
                // Sprinkle structural work too.
                c.resize(t, obj, 72).expect("grow");
                c.resize(t, obj, 64).expect("shrink");
            }
            c.commit(t).expect("commit");
        }
        let t = c.begin().expect("begin loser");
        let obj = layout.objects[0];
        rng.fill_bytes(&mut buf);
        c.write(t, obj, &buf).expect("loser write");
        // Make the loser durable so restart has something to undo.
        c.checkpoint().expect("force");
        c.crash();
        let report = c.recover().expect("recover");
        emitter.row(
            &[
                ("sweep", "updates_since_ckpt".to_string()),
                ("updates", updates.to_string()),
            ],
            &sys.metrics_snapshot(),
        );
        table.row(vec![
            updates.to_string(),
            f1(report.elapsed.as_secs_f64() * 1e3),
            report.records_scanned.to_string(),
            report.records_applied.to_string(),
            report.pages_fetched.to_string(),
            report.pages_recovered.to_string(),
            report.losers.to_string(),
        ]);
    }
    table.print();

    // Ablation: Property 1 (DCT filtering) on vs. off. With the filter
    // off, pages without a DCT entry are not skipped as pages, but the
    // restart scan still drops every record on an object the client no
    // longer holds X: here that leaves the flushed pages nothing to redo,
    // so they are not fetched either way.
    println!();
    println!("ablation: DCT filter (Property 1) on one 500-update run,");
    println!("followed by a harden (all pages flushed, DPT advanced):");
    let mut table = Table::new(&[
        "dct filter",
        "recovery ms",
        "pages fetched",
        "records applied",
    ]);
    for use_filter in [true, false] {
        let cfg = SystemConfig {
            client_checkpoint_every: u64::MAX / 2,
            client_cache_pages: 256,
            ..Default::default()
        };
        let sys = System::build(cfg, 2).expect("build");
        let layout = populate(sys.client(0), 64, 16, 64).expect("populate");
        let c = sys.client(0);
        c.harden().expect("harden");
        let mut rng = DetRng::new(0xE4A);
        let mut buf = [0u8; 64];
        for _ in 0..500 {
            let t = c.begin().expect("begin");
            let obj = layout.objects[rng.range_usize(0, layout.objects.len())];
            rng.fill_bytes(&mut buf);
            c.write(t, obj, &buf).expect("write");
            c.commit(t).expect("commit");
        }
        // Make the filter bite: client 1 reads every object on the even
        // pages (downgrading client 0's X locks to S), then those pages
        // are flushed — their DCT entries disappear (§3.2), so Property 1
        // marks them not-needing-recovery. The odd pages keep X locks and
        // stay in the DCT.
        let reader = sys.client(1);
        let t = reader.begin().expect("begin reader");
        for obj in layout.objects.iter().filter(|o| (o.page.0 % 2) == 0) {
            reader.read(t, *obj).expect("read");
        }
        reader.commit(t).expect("commit reader");
        for page in layout.pages.iter().filter(|p| p.0 % 2 == 0) {
            sys.server.flush_page(*page).expect("flush");
        }
        c.checkpoint().expect("ckpt");
        c.crash();
        let report = c
            .recover_with(RecoveryOptions {
                use_dct_filter: use_filter,
            })
            .expect("recover");
        emitter.row(
            &[
                ("sweep", "dct_filter_ablation".to_string()),
                ("dct_filter", use_filter.to_string()),
            ],
            &sys.metrics_snapshot(),
        );
        table.row(vec![
            if use_filter { "on (paper)" } else { "off" }.into(),
            f1(report.elapsed.as_secs_f64() * 1e3),
            report.pages_fetched.to_string(),
            report.records_applied.to_string(),
        ]);
    }
    table.print();
    emitter.finish();
}
