//! The workload registry: one value per application the CLI surfaces
//! run, carrying that application's configuration.
//!
//! `monitor`, `fleet`, `whatif`, `trace` and `stat` all go through
//! [`Workload`]: [`Workload::parse`] resolves a CLI name to the stock
//! configuration, [`Workload::shape`] fits it to a surface's generic
//! threads / operations / seed / logging mode, and [`Workload::build`]
//! emits the guest program and spawns its threads on the caller's
//! [`SessionBuilder`]. A new application is added here — one variant,
//! one name, one arm per method — and every surface accepts it.

use crate::apache::{self, ApacheConfig};
use crate::firefox::{self, FirefoxConfig};
use crate::logstore::{self, LogstoreConfig};
use crate::memcached::{self, MemcachedConfig};
use crate::mysqld::{self, MysqlConfig};
use crate::proxy::{self, ProxyConfig};
use limit::harness::{Session, SessionBuilder};
use limit::{CounterReader, LogMode};
use sim_core::SimResult;
use sim_cpu::EventKind;

/// A registered workload and its configuration.
#[derive(Debug, Clone)]
pub enum Workload {
    /// The MySQL-like storage engine: table / buffer-pool / log locks.
    Mysqld(MysqlConfig),
    /// The memcached-like cache: striped bucket locks.
    Memcached(MemcachedConfig),
    /// The log-structured store: fsync-bound commits.
    Logstore(LogstoreConfig),
    /// The scatter-gather proxy: blocking network fan-out.
    Proxy(ProxyConfig),
    /// The Firefox-like event loop: short heterogeneous tasks.
    Firefox(FirefoxConfig),
    /// The Apache-like web server: per-request phases.
    Apache(ApacheConfig),
}

impl Workload {
    /// Every registered name, in registry order.
    pub const ALL: [&'static str; 6] = [
        "mysqld",
        "memcached",
        "logstore",
        "proxy",
        "firefox",
        "apache",
    ];

    /// The workload called `name`, with its stock configuration; the
    /// error lists every registered name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        [
            Workload::Mysqld(MysqlConfig::default()),
            Workload::Memcached(MemcachedConfig::default()),
            Workload::Logstore(LogstoreConfig::default()),
            Workload::Proxy(ProxyConfig::default()),
            Workload::Firefox(FirefoxConfig::default()),
            Workload::Apache(ApacheConfig::default()),
        ]
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name:?} ({})", Workload::ALL.join("|")))
    }

    /// The CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Mysqld(_) => "mysqld",
            Workload::Memcached(_) => "memcached",
            Workload::Logstore(_) => "logstore",
            Workload::Proxy(_) => "proxy",
            Workload::Firefox(_) => "firefox",
            Workload::Apache(_) => "apache",
        }
    }

    /// The small guest-memory footprint of surfaces that build many
    /// sessions (fleet instances, what-if arms). mysqld's stock 4 MiB
    /// buffer pool and 4 MiB of tables would make allocation zeroing
    /// dominate a short session's wall time; the compact shape keeps its
    /// lock topology. Every other workload is already small.
    pub fn compact(self) -> Workload {
        match self {
            Workload::Mysqld(cfg) => Workload::Mysqld(MysqlConfig {
                tables: 4,
                table_bytes: 16 * 1024,
                bufpool_bytes: 256 * 1024,
                ..cfg
            }),
            other => other,
        }
    }

    /// Fits the configuration to a surface's generic knobs: `threads`
    /// guest workers, `ops` operations each (queries, commits, requests
    /// or event-loop tasks), the base `seed` when given, and the logging
    /// `mode`. Also returns the guest thread count, which sizes the
    /// telemetry collector; firefox spends one of its `threads` on the
    /// event-loop thread and the rest on helpers.
    pub fn shape(
        mut self,
        threads: usize,
        ops: u64,
        seed: Option<u64>,
        mode: LogMode,
    ) -> (Workload, usize) {
        macro_rules! fit {
            ($cfg:expr, $threads:ident, $ops:ident) => {{
                $cfg.$threads = threads;
                $cfg.$ops = ops;
                $cfg.seed = seed.unwrap_or($cfg.seed);
                $cfg.mode = mode;
                threads
            }};
        }
        let guest_threads = match &mut self {
            Workload::Mysqld(c) => fit!(c, threads, queries_per_thread),
            Workload::Memcached(c) => fit!(c, workers, ops_per_worker),
            Workload::Logstore(c) => fit!(c, threads, commits_per_thread),
            Workload::Proxy(c) => fit!(c, threads, requests_per_thread),
            Workload::Apache(c) => fit!(c, workers, requests_per_worker),
            Workload::Firefox(c) => {
                c.helpers = threads.saturating_sub(1);
                c.tasks = ops;
                c.seed = seed.unwrap_or(c.seed);
                c.mode = mode;
                1 + c.helpers
            }
        };
        (self, guest_threads)
    }

    /// Simulated cores the stock configuration runs on (`trace`, `stat`):
    /// 8, except firefox's three threads, which run on 4.
    pub fn stock_cores(&self) -> usize {
        match self {
            Workload::Firefox(_) => 4,
            _ => 8,
        }
    }

    /// Checks the configuration without building anything.
    pub fn validate(&self) -> SimResult<()> {
        match self {
            Workload::Mysqld(c) => c.validate(),
            Workload::Memcached(c) => c.validate(),
            Workload::Logstore(c) => c.validate(),
            Workload::Proxy(c) => c.validate(),
            Workload::Firefox(c) => c.validate(),
            Workload::Apache(c) => c.validate(),
        }
    }

    /// Emits the guest program under `reader`, builds the session on
    /// `builder` with counters for `events`, and spawns every thread. The
    /// caller runs it.
    pub fn build(
        &self,
        reader: &dyn CounterReader,
        builder: SessionBuilder,
        events: &[EventKind],
    ) -> SimResult<Session> {
        Ok(match self {
            Workload::Mysqld(c) => mysqld::build_on(c, reader, builder, events)?.0,
            Workload::Memcached(c) => memcached::build_on(c, reader, builder, events)?.0,
            Workload::Logstore(c) => logstore::build_on(c, reader, builder, events)?.0,
            Workload::Proxy(c) => proxy::build_on(c, reader, builder, events)?.0,
            Workload::Firefox(c) => firefox::build_on(c, reader, builder, events)?.0,
            Workload::Apache(c) => apache::build_on(c, reader, builder, events)?.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::{LimitReader, StreamConfig};

    #[test]
    fn every_name_round_trips() {
        for name in Workload::ALL {
            assert_eq!(Workload::parse(name).unwrap().name(), name);
        }
        let err = Workload::parse("postgres").unwrap_err();
        assert!(
            err.contains("mysqld|memcached|logstore|proxy|firefox|apache"),
            "{err}"
        );
    }

    #[test]
    fn shape_sets_the_generic_knobs() {
        let mode = LogMode::Stream(StreamConfig::dropping(64));
        let (w, threads) = Workload::parse("memcached")
            .unwrap()
            .shape(3, 7, Some(11), mode);
        assert_eq!(threads, 3);
        let Workload::Memcached(c) = &w else { panic!() };
        assert_eq!((c.workers, c.ops_per_worker, c.seed), (3, 7, 11));
        assert_eq!(c.mode, mode);

        let (w, threads) = Workload::parse("firefox")
            .unwrap()
            .shape(4, 9, None, LogMode::Log);
        assert_eq!(threads, 4);
        let Workload::Firefox(c) = &w else { panic!() };
        assert_eq!(
            (c.helpers, c.tasks, c.seed),
            (3, 9, FirefoxConfig::default().seed)
        );
    }

    #[test]
    fn compact_shrinks_only_mysqld_memory() {
        let Workload::Mysqld(c) = Workload::parse("mysqld").unwrap().compact() else {
            panic!()
        };
        assert_eq!(
            (c.tables, c.table_bytes, c.bufpool_bytes),
            (4, 16 * 1024, 256 * 1024)
        );
        assert_eq!(c.threads, MysqlConfig::default().threads);
        let Workload::Proxy(c) = Workload::parse("proxy").unwrap().compact() else {
            panic!()
        };
        assert_eq!(c.table_bytes, ProxyConfig::default().table_bytes);
    }

    #[test]
    fn every_workload_builds_in_every_mode() {
        let events = [EventKind::Cycles];
        let reader = LimitReader::with_events(events.to_vec());
        let modes = [
            LogMode::Log,
            LogMode::Aggregate,
            LogMode::Stream(StreamConfig::dropping(64)),
        ];
        for name in Workload::ALL {
            for mode in modes {
                let (w, threads) = Workload::parse(name).unwrap().shape(2, 2, None, mode);
                let mut session = w.build(&reader, SessionBuilder::new(2), &events).unwrap();
                assert_eq!(session.spawned_tids().len(), threads, "{name}");
                session.run().unwrap();
            }
        }
    }

    /// `analysis::online::classify` reads a region's cycle share from its
    /// own row; that equals a share looked up by name only while no two
    /// regions of a session share a name.
    #[test]
    fn every_session_names_its_regions_uniquely() {
        let events = [EventKind::Cycles];
        let reader = LimitReader::with_events(events.to_vec());
        for name in Workload::ALL {
            let mode = LogMode::Stream(StreamConfig::dropping(64));
            let (w, _) = Workload::parse(name).unwrap().shape(2, 2, None, mode);
            let session = w.build(&reader, SessionBuilder::new(2), &events).unwrap();
            let mut names: Vec<&str> = session.regions.iter().map(|(_, n)| n).collect();
            assert!(!names.is_empty(), "{name} defines no regions");
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "{name} repeats a region name");
        }
    }
}
