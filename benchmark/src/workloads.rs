//! The four workloads: what each one runs, on which configuration, and how
//! its rounds are sized. `README.md` says why each is here.

use crate::opgen::{LoadSpec, Shape};
use fgl::{SystemConfig, TransportKind};
use std::time::Duration;

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub cfg: SystemConfig,
    pub load: LoadSpec,
    /// Clients run as green tasks on this many `fgl-sched` workers; 0 means
    /// one OS thread per client.
    pub green_workers: usize,
    /// Pin the whole process to one CPU before any thread starts (a
    /// cross-vCPU futex wake waits for the hypervisor; see the README).
    pub pin: bool,
    /// Transactions per client before a burst is timed.
    pub warmup_txns: u32,
    /// Transactions per client in a timed burst: fixed work, about one
    /// second when the benchmark was defined, so counts per commit do not
    /// depend on how fast the host happens to be.
    pub burst_txns: u32,
    /// Bursts and drill pairs of a run at the nominal 26 s budget.
    pub bursts: u32,
    pub drills: u32,
    /// Database pages of the server and of the client crash drill (a
    /// fresh small system each).
    pub server_drill_pages: u32,
    pub client_drill_pages: u32,
    /// Transactions per client before the server, and the client, is
    /// crashed.
    pub server_drill_txns: u32,
    pub client_drill_txns: u32,
    /// `client_checkpoint_every` of a client crash drill. An automatic
    /// checkpoint tripped by a commit record makes recovery roll the
    /// committed transaction back (fatal path 4 in the README), so the
    /// drills never checkpoint on their own.
    pub client_drill_checkpoint_every: u64,
    /// The `--set` overrides applied, in order. A run that carries any is
    /// not a run of the frozen workload; the details file says so.
    pub overrides: Vec<(String, u64)>,
}

pub const NAMES: [&str; 4] = [
    "private_commit",
    "hotcold_share",
    "simlat_fanin",
    "uds_spill",
];

impl Workload {
    /// CPU-paced: the configuration injects no device or network latency,
    /// so every duration is host CPU work and is corrected by the
    /// yardstick. A property of the input, not of the workload's name.
    pub fn cpu_paced(&self) -> bool {
        self.cfg.disk_latency.is_zero() && self.cfg.net_latency.is_zero()
    }

    /// The configuration of a client crash drill.
    pub fn client_drill_cfg(&self) -> SystemConfig {
        let mut cfg = self.cfg.clone();
        cfg.client_checkpoint_every = self.client_drill_checkpoint_every;
        cfg
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    let two_clients = |shape, pages, write_per_mille| LoadSpec {
        shape,
        pages,
        clients: 2,
        write_per_mille,
    };
    Some(match name {
        "private_commit" => Workload {
            name: "private_commit",
            cfg: SystemConfig::default(),
            load: two_clients(Shape::Private, 64, 300),
            green_workers: 0,
            pin: true,
            warmup_txns: 2_000,
            burst_txns: 100_000,
            bursts: 12,
            drills: 4,
            // Twice the two client caches: half of every region is evicted
            // dirty, which is what a restarted server has to get replayed.
            server_drill_pages: 256,
            client_drill_pages: 64,
            server_drill_txns: 1_000,
            client_drill_txns: 20_000,
            client_drill_checkpoint_every: u64::MAX,
            overrides: Vec::new(),
        },
        "hotcold_share" => Workload {
            name: "hotcold_share",
            cfg: SystemConfig::default(),
            load: two_clients(Shape::HotCold, 64, 300),
            green_workers: 0,
            pin: true,
            warmup_txns: 2_000,
            burst_txns: 25_000,
            bursts: 12,
            drills: 4,
            server_drill_pages: 256,
            client_drill_pages: 64,
            server_drill_txns: 1_000,
            client_drill_txns: 10_000,
            client_drill_checkpoint_every: u64::MAX,
            overrides: Vec::new(),
        },
        "simlat_fanin" => Workload {
            name: "simlat_fanin",
            cfg: SystemConfig {
                server_cache_pages: 2_048,
                disk_latency: Duration::from_micros(400),
                net_latency: Duration::from_micros(40),
                lock_timeout: Duration::from_secs(2),
                ..SystemConfig::default()
            },
            load: LoadSpec {
                shape: Shape::HotCold,
                pages: 1_024,
                clients: 64,
                write_per_mille: 300,
            },
            green_workers: 2,
            pin: false,
            warmup_txns: 10,
            burst_txns: 150,
            bursts: 8,
            drills: 3,
            server_drill_pages: 64,
            client_drill_pages: 64,
            // A restart under these delays takes 0.7 s after 5
            // transactions per client and minutes after 200 (fatal path 5).
            server_drill_txns: 5,
            // Enough for client 0 to have dirtied most of the 64 pages, so
            // what it has to redo does not depend on the seed.
            client_drill_txns: 120,
            client_drill_checkpoint_every: u64::MAX,
            overrides: Vec::new(),
        },
        "uds_spill" => Workload {
            name: "uds_spill",
            cfg: SystemConfig {
                server_cache_pages: 4_096,
                // An 8 MiB private log wraps over a spilling workload and
                // ends in LogFull (fatal path 1).
                client_log_bytes: 64 << 20,
                // Every request thread of the socket server leaks a
                // flight-recorder ring (fatal path 6): keep them small.
                obs_ring_entries: 16,
                transport: TransportKind::Uds,
                ..SystemConfig::default()
            },
            load: two_clients(Shape::Private, 1_024, 100),
            green_workers: 0,
            pin: true,
            // Every request leaks (fatal path 6), about 32 KiB a commit:
            // this is as much work as keeps the process under 1 GiB.
            warmup_txns: 100,
            burst_txns: 700,
            bursts: 8,
            drills: 3,
            server_drill_pages: 256,
            client_drill_pages: 64,
            server_drill_txns: 500,
            client_drill_txns: 6_000,
            client_drill_checkpoint_every: u64::MAX,
            overrides: Vec::new(),
        },
        _ => return None,
    })
}

/// Apply one `--set FIELD=N` override. The fields are exactly those the
/// README's repro lines of the fatal paths use; nothing else of a frozen
/// workload can be changed from the command line.
pub fn apply_override(w: &mut Workload, field: &str, value: u64) -> Result<(), String> {
    match field {
        "client_log_mib" => w.cfg.client_log_bytes = value << 20,
        "burst_txns" => w.burst_txns = value as u32,
        "server_drill_pages" => w.server_drill_pages = value as u32,
        "client_drill_pages" => w.client_drill_pages = value as u32,
        "server_drill_txns" => w.server_drill_txns = value as u32,
        "client_drill_checkpoint_every" => w.client_drill_checkpoint_every = value,
        "pin" => w.pin = value != 0,
        other => return Err(format!("unknown --set field `{other}`")),
    }
    w.overrides.push((field.to_string(), value));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opgen::stream_hash;

    /// The inputs are part of the benchmark's definition: the first 1 000
    /// transactions of every client of every workload hash to these.
    #[test]
    fn op_streams_are_pinned() {
        let got: Vec<(&str, u64)> = NAMES
            .iter()
            .map(|name| {
                let w = by_name(name).unwrap();
                let h = (0..w.load.clients).fold(0u64, |h, c| {
                    h.rotate_left(9) ^ stream_hash(w.load, 5000, c, 1_000)
                });
                (*name, h)
            })
            .collect();
        let pinned = [
            ("private_commit", 0x235d_8b8d_869c_8ea9u64),
            ("hotcold_share", 0x6181_eb8b_7aef_4319),
            ("simlat_fanin", 0x242f_9093_d092_4988),
            ("uds_spill", 0x6acb_f250_8eff_c5d4),
        ];
        assert_eq!(got, pinned, "an op stream changed: {got:#x?}");
    }

    #[test]
    fn only_simlat_injects_latency() {
        for name in NAMES {
            let w = by_name(name).unwrap();
            w.cfg.validate().unwrap();
            assert_eq!(w.cpu_paced(), name != "simlat_fanin", "{name}");
            assert_eq!(w.load.pages % w.load.clients, 0);
            // Server pool at least the database: a smaller pool returns
            // stale committed values (fatal path 2).
            assert!(w.cfg.server_cache_pages >= w.load.pages as usize);
        }
        assert!(by_name("nope").is_none());
    }
}
