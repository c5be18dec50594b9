//! The host-side experiment harness: build a machine, lay out per-thread
//! state, spawn instrumented threads, run, extract results.
//!
//! [`SessionBuilder`] fixes the hardware/kernel configuration and the
//! counter set; [`Session`] owns the booted kernel plus the memory layout
//! of every spawned thread's TLS block and log buffer.
//!
//! The counter set passed to [`SessionBuilder::events`] must match the
//! events the workload's [`crate::reader::CounterReader`] attaches — the
//! session uses its length to size and parse log records.

use crate::instrument::{StreamConfig, ENTER_MARK_PREFIX, EXIT_MARK_PREFIX};
use crate::report::{parse_log, RegionRecord, Regions};
use crate::tls;
use flight::{EventData, FlightConfig, RegionMark};
use sim_core::{Freq, SimError, SimResult, ThreadId};
use sim_cpu::{Asm, EventKind, Machine, MachineConfig, MemLayout};
use sim_os::{IoRing, Kernel, KernelConfig, RunReport};
use std::collections::HashMap;

/// Configuration for a [`Session`].
#[derive(Debug)]
pub struct SessionBuilder {
    machine_cfg: MachineConfig,
    kernel_cfg: KernelConfig,
    events: Vec<EventKind>,
    log_capacity: usize,
    tls_user_bytes: u64,
    layout: Option<MemLayout>,
    aggregate_regions: usize,
    stream: Option<StreamConfig>,
    param_warnings: Vec<String>,
}

impl SessionBuilder {
    /// A session on `cores` cores with default hardware and kernel.
    pub fn new(cores: usize) -> Self {
        SessionBuilder {
            machine_cfg: MachineConfig::new(cores),
            kernel_cfg: KernelConfig::default(),
            events: Vec::new(),
            log_capacity: 65_536,
            tls_user_bytes: 256,
            layout: None,
            aggregate_regions: 0,
            stream: None,
            param_warnings: Vec::new(),
        }
    }

    /// A session built from a full runtime parameter set (the what-if
    /// engine's entry point). Hard-invalid parameter combinations are
    /// rejected here; degenerate-but-runnable combinations become warning
    /// lines the session routes through its [`WarnSink`] at teardown.
    /// Kernel fields the params do not cover keep the defaults — override
    /// afterwards via [`SessionBuilder::kernel_config`] if needed, but note
    /// that replaces the params-derived quantum/switch cost too.
    pub fn from_params(params: &crate::params::MachineParams) -> SimResult<Self> {
        let warnings = params.validate()?;
        let mut b = SessionBuilder::new(params.cores);
        b.machine_cfg = params.machine_config();
        b.kernel_cfg = params.kernel_config();
        b.param_warnings = warnings;
        Ok(b)
    }

    /// Enables stream-mode instrumentation: every spawned thread gets an
    /// SPSC telemetry ring of `cfg.capacity` slots (addressed via
    /// [`tls::RING_BASE`], filled by
    /// [`crate::Instrumenter::emit_exit_stream`]) *instead of* a post-run
    /// log buffer — stream-mode memory is bounded by the ring, not the
    /// event count.
    pub fn stream(mut self, cfg: StreamConfig) -> Self {
        assert!(
            cfg.capacity.is_power_of_two(),
            "ring capacity must be a power of two, got {}",
            cfg.capacity
        );
        self.stream = Some(cfg);
        self
    }

    /// Enables aggregate-mode instrumentation: every spawned thread gets a
    /// per-region table of `regions` entries, addressed via
    /// [`tls::AGG_BASE`] and filled by
    /// [`crate::Instrumenter::emit_exit_aggregate`].
    pub fn aggregate_regions(mut self, regions: usize) -> Self {
        self.aggregate_regions = regions;
        self
    }

    /// Continues allocating from a layout the workload already used during
    /// emission (so session allocations cannot overlap workload data).
    pub fn with_layout(mut self, layout: MemLayout) -> Self {
        self.layout = Some(layout);
        self
    }

    /// Sets the counter events (at most [`tls::MAX_COUNTERS`]).
    pub fn events(mut self, events: &[EventKind]) -> Self {
        self.events = events.to_vec();
        self
    }

    /// Replaces the machine configuration.
    pub fn machine_config(mut self, cfg: MachineConfig) -> Self {
        self.machine_cfg = cfg;
        self
    }

    /// Replaces the kernel configuration.
    pub fn kernel_config(mut self, cfg: KernelConfig) -> Self {
        self.kernel_cfg = cfg;
        self
    }

    /// Sets the per-thread log capacity in records.
    pub fn log_capacity(mut self, records: usize) -> Self {
        self.log_capacity = records;
        self
    }

    /// Sets the size of the workload-defined TLS area.
    pub fn tls_user_bytes(mut self, bytes: u64) -> Self {
        self.tls_user_bytes = bytes;
        self
    }

    /// A fresh assembler (convenience).
    pub fn asm(&mut self) -> Asm {
        Asm::new()
    }

    /// Assembles the program, boots the kernel, and registers every
    /// `limit_read.*` restart range with the LiMiT extension.
    pub fn build(self, asm: Asm) -> SimResult<Session> {
        if self.events.len() > tls::MAX_COUNTERS {
            return Err(SimError::Config(format!(
                "at most {} counter events",
                tls::MAX_COUNTERS
            )));
        }
        let prog = asm.assemble()?;
        let issues = sim_cpu::verify(&prog);
        if !issues.is_empty() {
            let listing: Vec<String> = issues.iter().map(|i| i.to_string()).collect();
            return Err(SimError::Program(format!(
                "program failed verification: {}",
                listing.join("; ")
            )));
        }
        let ranges: Vec<(u32, u32)> = prog
            .iter_ranges()
            .filter(|(name, _)| name.starts_with(crate::reader::LIMIT_RANGE_PREFIX))
            .map(|(_, r)| r)
            .collect();
        let machine = Machine::new(self.machine_cfg, prog)?;
        let mut kernel = Kernel::new(machine, self.kernel_cfg);
        for (s, e) in ranges {
            // Reader-emitted ranges are disjoint by construction; a rejected
            // registration is counted kernel-side and surfaced at teardown
            // (see `Session::warn_on_rejected_ranges`).
            let _ = kernel.register_restart_range(s, e);
        }
        Ok(Session {
            kernel,
            regions: Regions::new(),
            events: self.events,
            layout: self.layout.unwrap_or_default(),
            log_capacity: self.log_capacity,
            tls_user_bytes: self.tls_user_bytes,
            aggregate_regions: self.aggregate_regions,
            stream: self.stream,
            tls_of: HashMap::new(),
            report: None,
            warn_sink: None,
            param_warnings: self.param_warnings,
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct TlsInfo {
    base: u64,
    log_base: u64,
    agg_base: u64,
    ring_base: u64,
}

/// Everything a host-side collector needs to drain one thread's telemetry
/// ring (see `telemetry::Collector`).
#[derive(Debug, Clone, Copy)]
pub struct RingHandle {
    /// The producing thread.
    pub tid: ThreadId,
    /// Guest address of the thread's TLS block (head/tail indices live at
    /// [`tls::RING_HEAD`] / [`tls::RING_TAIL`] off this base).
    pub tls_base: u64,
    /// Guest address of slot 0.
    pub ring_base: u64,
    /// Ring capacity in slots (power of two).
    pub capacity: u64,
    /// Event deltas per record.
    pub counters: usize,
    /// Full-ring policy (see [`StreamConfig::overwrite`]).
    pub overwrite: bool,
}

/// Destination for a session's teardown warning lines.
///
/// By default warnings go straight to stderr — fine for one session, but N
/// concurrent fleet instances would interleave their lines arbitrarily. A
/// sink captures the formatted lines instead, so the host can serialize
/// them (the fleet driver buffers per instance and prints them in instance
/// order after the parallel phase). The structured counterparts stay on
/// [`RunReport::warnings`] either way.
pub struct WarnSink(Box<dyn FnMut(&str) + Send>);

impl WarnSink {
    /// Wraps a callback receiving each formatted warning line (no trailing
    /// newline).
    pub fn new(f: impl FnMut(&str) + Send + 'static) -> Self {
        WarnSink(Box::new(f))
    }
}

impl std::fmt::Debug for WarnSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WarnSink(..)")
    }
}

/// A booted, instrumented experiment run.
#[derive(Debug)]
pub struct Session {
    /// The kernel (and, through it, the machine).
    pub kernel: Kernel,
    /// Region-name registry shared with the workload generator.
    pub regions: Regions,
    events: Vec<EventKind>,
    layout: MemLayout,
    log_capacity: usize,
    tls_user_bytes: u64,
    aggregate_regions: usize,
    stream: Option<StreamConfig>,
    tls_of: HashMap<ThreadId, TlsInfo>,
    report: Option<RunReport>,
    warn_sink: Option<WarnSink>,
    /// Degenerate-params warnings from [`SessionBuilder::from_params`],
    /// surfaced at teardown through the warn sink.
    param_warnings: Vec<String>,
}

impl Session {
    /// The counter events in force.
    pub fn events(&self) -> &[EventKind] {
        &self.events
    }

    /// The guest core frequency (for converting cycles to time).
    pub fn freq(&self) -> Freq {
        self.kernel.machine.freq()
    }

    /// Allocates guest memory for workload data.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        self.layout.alloc(bytes, align)
    }

    /// Writes a 64-bit word into guest memory (host-side initialization).
    pub fn write_u64(&mut self, addr: u64, value: u64) -> SimResult<()> {
        self.kernel.machine.mem.write_u64(addr, value)
    }

    /// Reads a 64-bit word from guest memory.
    pub fn read_u64(&self, addr: u64) -> SimResult<u64> {
        self.kernel.machine.mem.read_u64(addr)
    }

    /// Spawns a thread at `entry` with a fresh TLS block and log buffer.
    /// The TLS base is passed in `r0`; `extra` arguments (at most 5) follow
    /// in `r1..`.
    pub fn spawn_instrumented(&mut self, entry: &str, extra: &[u64]) -> SimResult<ThreadId> {
        if extra.len() > 5 {
            return Err(SimError::Harness("at most 5 extra spawn args".into()));
        }
        let rec = tls::record_size(self.events.len().max(1));
        let tls_base = self.layout.alloc(tls::TLS_SIZE + self.tls_user_bytes, 64);
        // Stream mode replaces the post-run log with the telemetry ring:
        // memory is bounded by the ring capacity regardless of run length.
        let log_base = if self.stream.is_none() {
            self.layout.alloc(self.log_capacity as u64 * rec, 64)
        } else {
            0
        };
        let agg_base = if self.aggregate_regions > 0 {
            let entry = crate::instrument::aggregate_entry_size(self.events.len());
            self.layout.alloc(self.aggregate_regions as u64 * entry, 64)
        } else {
            0
        };
        let ring_base = if let Some(cfg) = self.stream {
            let slot = tls::ring_slot_size(self.events.len());
            self.layout.alloc(cfg.capacity * slot, 64)
        } else {
            0
        };
        let mem = &mut self.kernel.machine.mem;
        mem.write_u64(tls_base + tls::LOG_CURSOR as u64, log_base)?;
        let log_end = if log_base != 0 {
            log_base + self.log_capacity as u64 * rec
        } else {
            0
        };
        mem.write_u64(tls_base + tls::LOG_END as u64, log_end)?;
        if agg_base != 0 {
            mem.write_u64(tls_base + tls::AGG_BASE as u64, agg_base)?;
        }
        if ring_base != 0 {
            mem.write_u64(tls_base + tls::RING_BASE as u64, ring_base)?;
            mem.write_u64(tls_base + tls::RING_HEAD as u64, 0)?;
            mem.write_u64(tls_base + tls::RING_TAIL as u64, 0)?;
        }
        let mut args = vec![tls_base];
        args.extend_from_slice(extra);
        let pc = self.kernel.machine.prog.entry(entry)?;
        let tid = self.kernel.spawn_at(pc, &args, None);
        if let Some(cfg) = self.stream {
            // Let the kernel append blocking-I/O wait records to the same
            // telemetry ring the thread's instrumentation streams into.
            self.kernel.set_io_ring(
                tid,
                IoRing {
                    base: ring_base,
                    head_addr: tls_base + tls::RING_HEAD as u64,
                    tail_addr: tls_base + tls::RING_TAIL as u64,
                    dropped_addr: tls_base + tls::DROPPED as u64,
                    capacity: cfg.capacity,
                    counters: self.events.len(),
                    overwrite: cfg.overwrite,
                },
            );
        }
        self.tls_of.insert(
            tid,
            TlsInfo {
                base: tls_base,
                log_base,
                agg_base,
                ring_base,
            },
        );
        Ok(tid)
    }

    /// Turns on the machine-wide flight recorder: installs per-core event
    /// rings, scans the program for the instrumenter's region marks and the
    /// reader's `limit_read.*` restart ranges (so in-range `rdpmc` reads
    /// become counter samples), and leaves every kernel/CPU emission site
    /// live. Call before [`Session::run`]; costs nothing if never called.
    pub fn enable_flight(&mut self, cfg: FlightConfig) {
        let mut marks = HashMap::new();
        let mut limit_ranges = Vec::new();
        for (name, (start, end)) in self.kernel.machine.prog.iter_ranges() {
            if name.starts_with(ENTER_MARK_PREFIX) {
                marks.insert(start, RegionMark::Enter);
            } else if let Some(rest) = name.strip_prefix(EXIT_MARK_PREFIX) {
                let region = rest
                    .trim_start_matches('.')
                    .split('.')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                marks.insert(start, RegionMark::Exit(region));
            } else if name.starts_with(crate::reader::LIMIT_RANGE_PREFIX) {
                limit_ranges.push((start, end));
            }
        }
        self.kernel.machine.enable_flight(cfg);
        let fl = self.kernel.machine.flight_mut().expect("just enabled");
        fl.set_marks(marks);
        fl.set_limit_ranges(&limit_ranges);
    }

    /// Region id → name map, in the shape the flight-trace Chrome export
    /// wants ([`flight::chrome_trace`]).
    pub fn region_names(&self) -> HashMap<u64, String> {
        self.regions
            .iter()
            .map(|(id, name)| (id, name.to_string()))
            .collect()
    }

    /// Runs to completion, retaining the report.
    pub fn run(&mut self) -> SimResult<RunReport> {
        self.flight_session_open();
        let mut report = self.kernel.run()?;
        self.finish_run(&mut report);
        Ok(report)
    }

    /// Runs until the given thread exits (background threads may still be
    /// live), retaining the report.
    pub fn run_until_exit(&mut self, tid: ThreadId) -> SimResult<RunReport> {
        self.flight_session_open();
        let mut report = self.kernel.run_until_exit(tid)?;
        self.finish_run(&mut report);
        Ok(report)
    }

    fn flight_session_open(&mut self) {
        let threads = self.tls_of.len() as u32;
        let now = self.kernel.machine.global_clock();
        if let Some(fl) = self.kernel.machine.flight_mut() {
            fl.record_host(now, None, EventData::SessionOpen { threads });
        }
    }

    /// Teardown accounting for externally-driven runs: callers that drive
    /// `kernel.run_with_hook` themselves (the telemetry streaming path)
    /// never pass through [`Session::run`], so they invoke this to fill
    /// the report's warnings and route the warning lines through the
    /// installed [`WarnSink`].
    pub fn finalize_report(&mut self, report: &mut RunReport) {
        self.finish_run(report);
    }

    /// Teardown accounting: fills the report's structured warnings (the
    /// kernel already filled the fields it owns), mirrors them onto the
    /// flight recorder's host ring, and prints the legacy stderr lines.
    fn finish_run(&mut self, report: &mut RunReport) {
        let (dropped, worst) = self.drop_stats();
        report.warnings.dropped_records = dropped;
        report.warnings.worst_dropper = worst;
        report.warnings.busiest_region = worst.map(|(tid, _)| match self.busiest_region(tid) {
            Some(id) => {
                let name = self.regions.name(id);
                if name == "?" {
                    format!("region {id}")
                } else {
                    name.to_string()
                }
            }
            None => "unknown".to_string(),
        });
        let w = report.warnings.clone();

        let now = self.kernel.machine.global_clock();
        if let Some(fl) = self.kernel.machine.flight_mut() {
            fl.record_host(
                now,
                None,
                EventData::SessionClose {
                    dropped: w.dropped_records,
                    rejected: w.rejected_ranges,
                    unfixed: w.unfixed_races,
                },
            );
        }
        self.report = Some(report.clone());

        // Surface silent record loss: name the worst thread and its
        // most-affected region (the region appearing most often in the
        // records that *did* land — the best available proxy for what was
        // lost).
        if let Some((tid, d)) = w.worst_dropper {
            let region = w.busiest_region.as_deref().unwrap_or("unknown");
            self.warn(&format!(
                "warning: {} instrumentation record(s) dropped to full buffers \
                 (worst: {tid} with {d}; most-affected region: {region})",
                w.dropped_records
            ));
        }
        // Surface silently unprotected read sequences: a rejected
        // restart-range registration means interrupts landing in that
        // sequence could not be rewound, so its reads may be torn.
        if w.rejected_ranges > 0 {
            self.warn(&format!(
                "warning: {} restart-range registration(s) rejected for overlap; \
                 the affected read sequences ran without the atomicity fix-up",
                w.rejected_ranges
            ));
        }
        // Degenerate-params warnings (see `MachineParams::validate`): the
        // run completed, but under cost orderings the paper's claims do not
        // hold for.
        let param_warnings = std::mem::take(&mut self.param_warnings);
        for line in &param_warnings {
            self.warn(line);
        }
        self.param_warnings = param_warnings;
    }

    /// Routes teardown warning lines through the installed sink instead of
    /// stderr (see [`WarnSink`]). Install before running.
    pub fn set_warn_sink(&mut self, sink: WarnSink) {
        self.warn_sink = Some(sink);
    }

    fn warn(&mut self, line: &str) {
        match &mut self.warn_sink {
            Some(WarnSink(f)) => f(line),
            None => eprintln!("{line}"),
        }
    }

    /// Total dropped records across spawned threads, plus the worst
    /// offender.
    fn drop_stats(&self) -> (u64, Option<(ThreadId, u64)>) {
        let mut total = 0u64;
        let mut worst: Option<(ThreadId, u64)> = None;
        for tid in self.spawned_tids() {
            let d = self.dropped(tid).unwrap_or(0);
            total += d;
            if d > 0 && worst.is_none_or(|(_, w)| d > w) {
                worst = Some((tid, d));
            }
        }
        (total, worst)
    }

    /// The region id appearing most often in a thread's landed records
    /// (log records in log mode, resident ring slots in stream mode).
    fn busiest_region(&self, tid: ThreadId) -> Option<u64> {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        if let Some(cfg) = self.stream {
            let info = self.tls(tid);
            let head = self
                .read_u64(info.base + tls::RING_HEAD as u64)
                .unwrap_or(0);
            let slot = tls::ring_slot_size(self.events.len());
            for i in 0..head.min(cfg.capacity) {
                if let Ok(id) = self.read_u64(info.ring_base + i * slot) {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
        } else {
            for r in self.records(tid).ok()? {
                *counts.entry(r.region).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by_key(|&(id, n)| (n, std::cmp::Reverse(id)))
            .map(|(id, _)| id)
    }

    /// Drain handles for every spawned thread's telemetry ring, in spawn
    /// order (stream-mode sessions only).
    pub fn ring_handles(&self) -> Vec<RingHandle> {
        let Some(cfg) = self.stream else {
            return Vec::new();
        };
        self.spawned_tids()
            .into_iter()
            .map(|tid| {
                let info = self.tls(tid);
                RingHandle {
                    tid,
                    tls_base: info.base,
                    ring_base: info.ring_base,
                    capacity: cfg.capacity,
                    counters: self.events.len(),
                    overwrite: cfg.overwrite,
                }
            })
            .collect()
    }

    /// The stream configuration, if this session was built with
    /// [`SessionBuilder::stream`].
    pub fn stream_config(&self) -> Option<StreamConfig> {
        self.stream
    }

    /// The retained run report.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Session::run`].
    pub fn report(&self) -> &RunReport {
        self.report.as_ref().expect("session has not run yet")
    }

    fn tls(&self, tid: ThreadId) -> TlsInfo {
        *self
            .tls_of
            .get(&tid)
            .expect("thread was not spawned through this session")
    }

    /// The TLS base address of a spawned thread.
    pub fn tls_base(&self, tid: ThreadId) -> u64 {
        self.tls(tid).base
    }

    /// All threads spawned through this session, in spawn order.
    pub fn spawned_tids(&self) -> Vec<ThreadId> {
        let mut v: Vec<_> = self.tls_of.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Sum of the final virtualized values of counter `i` across every
    /// spawned thread — e.g. total user cycles when counter `i` counts
    /// [`EventKind::Cycles`](sim_cpu::EventKind::Cycles).
    pub fn counter_grand_total(&self, i: usize) -> SimResult<u64> {
        self.spawned_tids()
            .into_iter()
            .map(|t| self.counter_total(t, i))
            .sum()
    }

    /// The final 64-bit virtualized value of LiMiT counter `i` for `tid`
    /// (valid after the thread exits: the kernel folds the live counter on
    /// the final switch-out).
    pub fn counter_total(&self, tid: ThreadId, i: usize) -> SimResult<u64> {
        if i >= self.events.len() {
            return Err(SimError::Harness(format!("no counter {i} configured")));
        }
        self.read_u64(self.tls(tid).base + tls::accum_off(i) as u64)
    }

    /// Extracts a thread's instrumentation records (deltas sized by the
    /// session's event count).
    pub fn records(&self, tid: ThreadId) -> SimResult<Vec<RegionRecord>> {
        self.records_with(tid, self.events.len())
    }

    /// Extracts records with an explicit per-record delta count (for runs
    /// whose reader attaches a different counter set than the session's).
    pub fn records_with(&self, tid: ThreadId, counters: usize) -> SimResult<Vec<RegionRecord>> {
        let info = self.tls(tid);
        let cursor = self.read_u64(info.base + tls::LOG_CURSOR as u64)?;
        Ok(parse_log(
            &self.kernel.machine.mem,
            info.log_base,
            cursor,
            counters,
        ))
    }

    /// Records from every spawned thread, tagged by thread.
    pub fn all_records(&self) -> SimResult<Vec<(ThreadId, RegionRecord)>> {
        let mut tids: Vec<_> = self.tls_of.keys().copied().collect();
        tids.sort_unstable();
        let mut out = Vec::new();
        for tid in tids {
            for r in self.records(tid)? {
                out.push((tid, r));
            }
        }
        Ok(out)
    }

    /// Number of records a thread dropped to a full log buffer.
    pub fn dropped(&self, tid: ThreadId) -> SimResult<u64> {
        self.read_u64(self.tls(tid).base + tls::DROPPED as u64)
    }

    /// Extracts a thread's aggregate table: one
    /// `(count, sums-per-counter)` row per region id `0..regions`
    /// configured at build time.
    pub fn aggregates(&self, tid: ThreadId) -> SimResult<Vec<RegionAggregate>> {
        let info = self.tls(tid);
        if info.agg_base == 0 {
            return Err(SimError::Harness(
                "session was built without aggregate_regions".into(),
            ));
        }
        let k = self.events.len();
        let entry = crate::instrument::aggregate_entry_size(k);
        (0..self.aggregate_regions as u64)
            .map(|r| {
                let base = info.agg_base + r * entry;
                Ok(RegionAggregate {
                    region: r,
                    count: self.read_u64(base)?,
                    sums: (0..k)
                        .map(|i| self.read_u64(base + 8 * (1 + i as u64)))
                        .collect::<SimResult<_>>()?,
                })
            })
            .collect()
    }

    /// Sums aggregate tables across every spawned thread.
    pub fn aggregates_total(&self) -> SimResult<Vec<RegionAggregate>> {
        let mut total: Vec<RegionAggregate> = (0..self.aggregate_regions as u64)
            .map(|r| RegionAggregate {
                region: r,
                count: 0,
                sums: vec![0; self.events.len()],
            })
            .collect();
        for tid in self.spawned_tids() {
            for (acc, row) in total.iter_mut().zip(self.aggregates(tid)?) {
                acc.count += row.count;
                for (a, s) in acc.sums.iter_mut().zip(&row.sums) {
                    *a += s;
                }
            }
        }
        Ok(total)
    }
}

/// One region's aggregate-mode totals for one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAggregate {
    /// Region id (the table index).
    pub region: u64,
    /// Exits recorded.
    pub count: u64,
    /// Per-counter delta sums.
    pub sums: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::Instrumenter;
    use crate::reader::{CounterReader, LimitReader};
    use sim_cpu::Reg;
    use sim_os::syscall::nr;

    fn two_counter_builder(cores: usize) -> SessionBuilder {
        SessionBuilder::new(cores).events(&[EventKind::Instructions, EventKind::Cycles])
    }

    #[test]
    fn limit_read_sequence_counts_exactly() {
        let reader = LimitReader::new(1);
        let mut b = SessionBuilder::new(1).events(&[EventKind::Instructions]);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        asm.burst(500);
        reader.emit_read(&mut asm, 0, Reg::R4, Reg::R5);
        asm.mov(Reg::R0, Reg::R4);
        asm.syscall(nr::LOG_VALUE);
        asm.halt();
        let mut s = b.build(asm).unwrap();
        s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        // Counted after LIMIT_OPEN returns: burst(500) + load = 501 before
        // the rdpmc reads.
        assert_eq!(s.kernel.log(), &[501]);
    }

    #[test]
    fn restart_ranges_are_registered_automatically() {
        let reader = LimitReader::new(1);
        let mut b = SessionBuilder::new(1).events(&[EventKind::Instructions]);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        reader.emit_read(&mut asm, 0, Reg::R4, Reg::R5);
        reader.emit_read(&mut asm, 0, Reg::R4, Reg::R5);
        asm.halt();
        let s = b.build(asm).unwrap();
        assert_eq!(s.kernel.limit().ranges().len(), 2);
    }

    #[test]
    fn instrumented_region_produces_records() {
        let reader = LimitReader::new(2);
        let ins = Instrumenter::new(&reader);
        let mut b = two_counter_builder(1);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        ins.emit_enter(&mut asm);
        asm.burst(200);
        ins.emit_exit(&mut asm, 42);
        asm.halt();
        let mut s = b.build(asm).unwrap();
        let tid = s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        let recs = s.records(tid).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].region, 42);
        // Instruction delta = instructions retired between the enter rdpmc
        // read and the exit rdpmc read of counter 0: the enter rdpmc's own
        // retirement + add + store (3), counter 1's enter block (4), the
        // burst (200), the exit preamble (2 loads + br + imm + store = 5),
        // and the exit read's load (1) = 213.
        assert_eq!(recs[0].deltas[0], 213);
        // Cycle delta is at least the instruction delta.
        assert!(recs[0].deltas[1] >= recs[0].deltas[0]);
        assert_eq!(s.dropped(tid).unwrap(), 0);
    }

    #[test]
    fn counter_total_survives_thread_exit() {
        let reader = LimitReader::new(1);
        let mut b = SessionBuilder::new(1).events(&[EventKind::Instructions]);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        asm.burst(1234);
        asm.halt();
        let mut s = b.build(asm).unwrap();
        let tid = s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        // Final fold at exit: burst + halt = 1235 exactly.
        assert_eq!(s.counter_total(tid, 0).unwrap(), 1235);
        assert!(s.counter_total(tid, 5).is_err());
    }

    #[test]
    fn log_overflow_increments_dropped() {
        let reader = LimitReader::new(1);
        let ins = Instrumenter::new(&reader);
        let mut b = SessionBuilder::new(1)
            .events(&[EventKind::Instructions])
            .log_capacity(2);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        for _ in 0..5 {
            ins.emit_enter(&mut asm);
            asm.burst(10);
            ins.emit_exit(&mut asm, 1);
        }
        asm.halt();
        let mut s = b.build(asm).unwrap();
        let tid = s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        assert_eq!(s.records(tid).unwrap().len(), 2);
        assert_eq!(s.dropped(tid).unwrap(), 3);
        // Satellite accounting: the same loss shows up as structured data
        // on the report, not only as a stderr line.
        let w = &s.report().warnings;
        assert_eq!(w.dropped_records, 3);
        assert_eq!(w.worst_dropper, Some((tid, 3)));
        assert_eq!(w.busiest_region.as_deref(), Some("region 1"));
        assert!(w.any());
    }

    #[test]
    fn warn_sink_captures_teardown_lines_instead_of_stderr() {
        use std::sync::{Arc, Mutex};

        let reader = LimitReader::new(1);
        let ins = Instrumenter::new(&reader);
        let mut b = SessionBuilder::new(1)
            .events(&[EventKind::Instructions])
            .log_capacity(1);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        for _ in 0..3 {
            ins.emit_enter(&mut asm);
            asm.burst(10);
            ins.emit_exit(&mut asm, 1);
        }
        asm.halt();
        let mut s = b.build(asm).unwrap();
        s.spawn_instrumented("main", &[]).unwrap();
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let captured = Arc::clone(&lines);
        s.set_warn_sink(WarnSink::new(move |line| {
            captured.lock().unwrap().push(line.to_string());
        }));
        s.run().unwrap();
        let lines = lines.lock().unwrap();
        assert_eq!(lines.len(), 1, "expected exactly the drop warning");
        assert!(lines[0].contains("dropped to full buffers"), "{}", lines[0]);
        // The structured report still carries the same accounting.
        assert_eq!(s.report().warnings.dropped_records, 2);
    }

    #[test]
    fn flight_recorder_captures_session_timeline() {
        use flight::EventData;

        let reader = LimitReader::new(1);
        let ins = Instrumenter::new(&reader);
        let mut b = SessionBuilder::new(1).events(&[EventKind::Instructions]);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        ins.emit_enter(&mut asm);
        asm.burst(50);
        ins.emit_exit(&mut asm, 7);
        asm.halt();
        let mut s = b.build(asm).unwrap();
        s.enable_flight(FlightConfig::default());
        s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();

        let fl = s.kernel.machine.flight().expect("enabled");
        assert_eq!(fl.evicted(), 0);
        let events: Vec<_> = fl.rings()[0].iter().map(|e| &e.data).collect();
        let count = |pred: &dyn Fn(&EventData) -> bool| events.iter().filter(|e| pred(e)).count();
        // The enter sequence and the region-7 exit sequence both marked.
        assert_eq!(count(&|e| matches!(e, EventData::RegionEnter { .. })), 1);
        assert_eq!(
            count(&|e| matches!(e, EventData::RegionExit { region: 7, .. })),
            1
        );
        // limit_open attach, in-range rdpmc reads (one per enter/exit),
        // balanced switch and syscall events.
        assert_eq!(count(&|e| matches!(e, EventData::LimitOpen { .. })), 1);
        assert_eq!(
            count(&|e| matches!(e, EventData::Rdpmc { in_range: true, .. })),
            2
        );
        assert_eq!(
            count(&|e| matches!(e, EventData::SwitchIn)),
            count(&|e| matches!(e, EventData::SwitchOut { .. }))
        );
        assert_eq!(
            count(&|e| matches!(e, EventData::SyscallEnter { .. })),
            count(&|e| matches!(e, EventData::SyscallExit { .. }))
        );
        // Host ring has the open/close lifecycle pair.
        let host: Vec<_> = fl.host_ring().iter().map(|e| &e.data).collect();
        assert!(matches!(host[0], EventData::SessionOpen { threads: 1 }));
        assert!(matches!(host[1], EventData::SessionClose { .. }));
    }

    #[test]
    fn extra_args_flow_to_registers() {
        let mut b = SessionBuilder::new(1);
        let mut asm = b.asm();
        asm.export("main");
        // r1 (first extra) logged.
        asm.mov(Reg::R0, Reg::R1);
        asm.syscall(nr::LOG_VALUE);
        asm.halt();
        let mut s = b.build(asm).unwrap();
        s.spawn_instrumented("main", &[777]).unwrap();
        s.run().unwrap();
        assert_eq!(s.kernel.log(), &[777]);
    }

    #[test]
    fn too_many_extra_args_rejected() {
        let mut b = SessionBuilder::new(1);
        let mut asm = b.asm();
        asm.export("main");
        asm.halt();
        let mut s = b.build(asm).unwrap();
        assert!(s.spawn_instrumented("main", &[1, 2, 3, 4, 5, 6]).is_err());
    }

    #[test]
    fn aggregate_mode_accumulates_counts_and_sums() {
        let reader = LimitReader::new(1);
        let ins = Instrumenter::new(&reader);
        let mut b = SessionBuilder::new(1)
            .events(&[EventKind::Instructions])
            .aggregate_regions(3);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        for (region, work) in [(0u64, 50u32), (2, 80), (0, 50)] {
            ins.emit_enter(&mut asm);
            asm.burst(work);
            ins.emit_exit_aggregate(&mut asm, region);
        }
        asm.halt();
        let mut s = b.build(asm).unwrap();
        let tid = s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        let agg = s.aggregates(tid).unwrap();
        assert_eq!(agg.len(), 3);
        assert_eq!(agg[0].count, 2);
        assert_eq!(agg[1].count, 0);
        assert_eq!(agg[2].count, 1);
        // Each exit measures its burst plus a fixed instrumentation
        // preamble; region 0's sum covers two 50-instruction bursts.
        assert!(agg[0].sums[0] >= 100);
        assert!(agg[2].sums[0] >= 80);
        assert!(agg[0].sums[0] < 2 * agg[2].sums[0]);
        let total = s.aggregates_total().unwrap();
        assert_eq!(total[0], agg[0]);
    }

    #[test]
    fn stream_mode_appends_to_ring_and_drops_when_full() {
        let reader = LimitReader::new(1);
        let ins = Instrumenter::new(&reader);
        let cfg = StreamConfig::dropping(4);
        let mut b = SessionBuilder::new(1)
            .events(&[EventKind::Instructions])
            .stream(cfg);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        for r in 0..6u64 {
            ins.emit_enter(&mut asm);
            asm.burst(10);
            ins.emit_exit_stream(&mut asm, r, cfg);
        }
        asm.halt();
        let mut s = b.build(asm).unwrap();
        let tid = s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        let h = s.ring_handles()[0];
        assert_eq!(h.tid, tid);
        assert_eq!(h.capacity, 4);
        // Records 0..4 land; 4 and 5 hit a full ring and are dropped.
        let head = s.read_u64(h.tls_base + tls::RING_HEAD as u64).unwrap();
        assert_eq!(head, 4);
        assert_eq!(s.dropped(tid).unwrap(), 2);
        let slot = tls::ring_slot_size(1);
        for i in 0..4u64 {
            assert_eq!(s.read_u64(h.ring_base + i * slot).unwrap(), i);
            // Delta covers at least the burst.
            assert!(s.read_u64(h.ring_base + i * slot + 8).unwrap() >= 10);
        }
    }

    #[test]
    fn stream_overwrite_mode_keeps_newest_records() {
        let reader = LimitReader::new(1);
        let ins = Instrumenter::new(&reader);
        let cfg = StreamConfig::overwriting(4);
        let mut b = SessionBuilder::new(1)
            .events(&[EventKind::Instructions])
            .stream(cfg);
        let mut asm = b.asm();
        asm.export("main");
        reader.emit_thread_setup(&mut asm);
        for r in 0..6u64 {
            ins.emit_enter(&mut asm);
            asm.burst(10);
            ins.emit_exit_stream(&mut asm, r, cfg);
        }
        asm.halt();
        let mut s = b.build(asm).unwrap();
        let tid = s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        let h = s.ring_handles()[0];
        let head = s.read_u64(h.tls_base + tls::RING_HEAD as u64).unwrap();
        assert_eq!(head, 6);
        assert_eq!(s.dropped(tid).unwrap(), 0);
        // Slots 0,1 were overwritten by records 4,5; slots 2,3 still hold
        // records 2,3.
        let slot = tls::ring_slot_size(1);
        let ids: Vec<u64> = (0..4u64)
            .map(|i| s.read_u64(h.ring_base + i * slot).unwrap())
            .collect();
        assert_eq!(ids, vec![4, 5, 2, 3]);
    }

    #[test]
    fn non_stream_sessions_have_no_ring_handles() {
        let mut b = SessionBuilder::new(1);
        let mut asm = b.asm();
        asm.export("main");
        asm.halt();
        let mut s = b.build(asm).unwrap();
        s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        assert!(s.ring_handles().is_empty());
        assert!(s.stream_config().is_none());
    }

    #[test]
    fn aggregates_require_configuration() {
        let mut b = SessionBuilder::new(1);
        let mut asm = b.asm();
        asm.export("main");
        asm.halt();
        let mut s = b.build(asm).unwrap();
        let tid = s.spawn_instrumented("main", &[]).unwrap();
        s.run().unwrap();
        assert!(s.aggregates(tid).is_err());
    }

    #[test]
    fn too_many_events_rejected_at_build() {
        let b = SessionBuilder::new(1).events(&[EventKind::Cycles; 5]);
        assert!(b.build(Asm::new()).is_err());
    }
}
