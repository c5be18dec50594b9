//! A Firefox-like event-loop application (case study of E5/E8).
//!
//! The paper's Firefox insight is that interactive applications run *many
//! very short, heterogeneous tasks* whose per-class behaviour sampling
//! profilers blur together. The reproduction models the browser main
//! thread as an event loop dispatching five task classes with distinct
//! lengths and microarchitectural signatures, plus streaming helper
//! threads (image decoders):
//!
//! | class | length | signature |
//! |---|---|---|
//! | `ui`     | ~150 instr  | pure compute |
//! | `js`     | ~1 k instr  | data-dependent branches (mispredicts) |
//! | `layout` | ~2 k instr  | pointer-chasey reads over the DOM |
//! | `paint`  | ~1.5 k instr| sequential stores to the framebuffer |
//! | `gc`     | ~10 k instr | random reads over the whole heap |
//!
//! Every task body is wrapped both in an instrumented *region* (precise
//! per-task deltas under a LiMiT/perf reader) and in a named *PC range*
//! (`fx.task.<class>`) so sampling hits can be attributed post-run — the
//! two attribution paths experiment E5 compares.

use crate::prng;
use limit::harness::{Session, SessionBuilder};
use limit::report::Regions;
use limit::{CounterReader, Instrumenter, LogMode};
use sim_core::{SimError, SimResult};
use sim_cpu::{AluOp, Asm, Cond, EventKind, MemLayout, Reg};
use sim_os::{KernelConfig, RunReport};

/// Task classes, in dispatch order.
pub const TASK_CLASSES: [&str; 5] = ["ui", "js", "layout", "paint", "gc"];

/// Firefox-workload parameters.
#[derive(Debug, Clone)]
pub struct FirefoxConfig {
    /// Main-loop iterations (tasks dispatched).
    pub tasks: u64,
    /// Helper (image-decoder) threads.
    pub helpers: usize,
    /// DOM size in bytes (power of two).
    pub dom_bytes: u64,
    /// JS/GC heap size in bytes (power of two).
    pub heap_bytes: u64,
    /// Framebuffer size in bytes (power of two).
    pub fb_bytes: u64,
    /// Image-buffer size per helper in bytes (power of two).
    pub img_bytes: u64,
    /// Dispatch weights out of 1024 for `ui, js, layout, paint, gc`.
    pub weights: [u64; 5],
    /// Base RNG seed.
    pub seed: u64,
    /// Instrumentation logging mode (see [`LogMode`]); the default
    /// per-event log is what the case-study experiments read.
    pub mode: LogMode,
}

impl Default for FirefoxConfig {
    fn default() -> Self {
        FirefoxConfig {
            tasks: 400,
            helpers: 2,
            dom_bytes: 1 << 20,
            heap_bytes: 4 << 20,
            fb_bytes: 512 << 10,
            img_bytes: 1 << 20,
            // Mostly short tasks; GC is rare.
            weights: [440, 280, 160, 128, 16],
            seed: 0xF0F0,
            mode: LogMode::Log,
        }
    }
}

impl FirefoxConfig {
    /// Validates sizes and weights.
    pub fn validate(&self) -> SimResult<()> {
        for (name, v) in [
            ("dom_bytes", self.dom_bytes),
            ("heap_bytes", self.heap_bytes),
            ("fb_bytes", self.fb_bytes),
            ("img_bytes", self.img_bytes),
        ] {
            if !v.is_power_of_two() {
                return Err(SimError::Config(format!("{name} must be a power of two")));
            }
        }
        if self.weights.iter().sum::<u64>() != 1024 {
            return Err(SimError::Config("weights must sum to 1024".into()));
        }
        if self.tasks == 0 {
            return Err(SimError::Config("tasks must be non-zero".into()));
        }
        Ok(())
    }
}

/// Region ids per task class, in [`TASK_CLASSES`] order.
#[derive(Debug, Clone, Copy)]
pub struct FirefoxRegions {
    /// Region ids for `ui, js, layout, paint, gc`.
    pub task: [u64; 5],
}

/// An emitted Firefox image.
#[derive(Debug, Clone)]
pub struct FirefoxImage {
    /// Main-thread entry symbol.
    pub entry_main: &'static str,
    /// Helper-thread entry symbol.
    pub entry_helper: &'static str,
    /// Region ids.
    pub regions: FirefoxRegions,
    /// The configuration.
    pub cfg: FirefoxConfig,
}

/// Emits the main-loop and helper programs.
pub fn emit(
    asm: &mut Asm,
    layout: &mut MemLayout,
    regions: &mut Regions,
    reader: &dyn CounterReader,
    cfg: &FirefoxConfig,
) -> SimResult<FirefoxImage> {
    cfg.validate()?;
    let dom = layout.alloc(cfg.dom_bytes, 4096);
    let heap = layout.alloc(cfg.heap_bytes, 4096);
    let fb = layout.alloc(cfg.fb_bytes, 4096);
    let img = layout.alloc(cfg.img_bytes * cfg.helpers.max(1) as u64, 4096);

    let task_ids = [
        regions.define("fx.ui"),
        regions.define("fx.js"),
        regions.define("fx.layout"),
        regions.define("fx.paint"),
        regions.define("fx.gc"),
    ];
    let ins = Instrumenter::new(reader);
    let instrumented = reader.counters() > 0;

    asm.export("fx_main");
    asm.mov(Reg::R8, Reg::R1); // seed before setup clobbers r1
    reader.emit_thread_setup(asm);
    asm.imm(Reg::R2, 0);
    asm.imm(Reg::R9, cfg.tasks);

    let loop_top = asm.new_label();
    let dispatch_end = asm.new_label();
    asm.bind(loop_top);

    // Dispatch on cumulative weights.
    prng::emit_next_below(asm, Reg::R8, Reg::R10, 1024);
    let mut class_labels = Vec::new();
    let mut acc = 0u64;
    for w in cfg.weights.iter().take(4) {
        acc += w;
        let l = asm.new_label();
        asm.imm(Reg::R12, acc);
        asm.br(Cond::Lt, Reg::R10, Reg::R12, l);
        class_labels.push(l);
    }
    let gc_label = asm.new_label();
    asm.jmp(gc_label);
    class_labels.push(gc_label);

    // Emit each class body: label, range, instrumented region, then loop.
    for (i, class) in TASK_CLASSES.iter().enumerate() {
        asm.bind(class_labels[i]);
        let range = format!("fx.task.{class}");
        asm.begin_range(&range);
        if instrumented {
            ins.emit_enter(asm);
        }
        match *class {
            "ui" => {
                asm.burst(150);
            }
            "js" => {
                // 40 rounds of data-dependent branching compute.
                asm.imm(Reg::R12, 40);
                let t = asm.new_label();
                let odd = asm.new_label();
                let next = asm.new_label();
                asm.bind(t);
                prng::emit_next_below(asm, Reg::R8, Reg::R10, 2);
                asm.br(Cond::Eq, Reg::R10, Reg::R2, odd);
                asm.burst(25);
                asm.jmp(next);
                asm.bind(odd);
                asm.burst(15);
                asm.bind(next);
                asm.alui_sub(Reg::R12, 1);
                asm.br(Cond::Ne, Reg::R12, Reg::R2, t);
            }
            "layout" => {
                // 120 random DOM reads with a little compute each.
                asm.imm(Reg::R12, 120);
                let t = asm.new_label();
                asm.bind(t);
                prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.dom_bytes);
                asm.alui(AluOp::And, Reg::R10, !7u64);
                asm.imm(Reg::R11, dom);
                asm.add(Reg::R11, Reg::R10);
                asm.load(Reg::R6, Reg::R11, 0);
                asm.burst(8);
                asm.alui_sub(Reg::R12, 1);
                asm.br(Cond::Ne, Reg::R12, Reg::R2, t);
            }
            "paint" => {
                // Stream stores across 64 framebuffer lines + blend cost.
                prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.fb_bytes / 2);
                asm.alui(AluOp::And, Reg::R10, !63u64);
                asm.imm(Reg::R11, fb);
                asm.add(Reg::R11, Reg::R10);
                asm.imm(Reg::R12, 64);
                let t = asm.new_label();
                asm.bind(t);
                asm.store(Reg::R8, Reg::R11, 0);
                asm.alui_add(Reg::R11, 64);
                asm.burst(16);
                asm.alui_sub(Reg::R12, 1);
                asm.br(Cond::Ne, Reg::R12, Reg::R2, t);
            }
            "gc" => {
                // 600 random reads across the whole heap.
                asm.imm(Reg::R12, 600);
                let t = asm.new_label();
                asm.bind(t);
                prng::emit_next_below(asm, Reg::R8, Reg::R10, cfg.heap_bytes);
                asm.alui(AluOp::And, Reg::R10, !7u64);
                asm.imm(Reg::R11, heap);
                asm.add(Reg::R11, Reg::R10);
                asm.load(Reg::R6, Reg::R11, 0);
                asm.burst(10);
                asm.alui_sub(Reg::R12, 1);
                asm.br(Cond::Ne, Reg::R12, Reg::R2, t);
            }
            _ => unreachable!(),
        }
        if instrumented {
            ins.emit_exit_mode(asm, task_ids[i], cfg.mode);
        }
        asm.end_range(&range);
        asm.jmp(dispatch_end);
    }

    asm.bind(dispatch_end);
    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R2, loop_top);
    asm.halt();

    // Helper: stream-decode an image buffer repeatedly.
    asm.export("fx_helper");
    asm.mov(Reg::R8, Reg::R1); // helper index
    reader.emit_thread_setup(asm);
    asm.imm(Reg::R2, 0);
    // r11 = this helper's image buffer.
    asm.mov(Reg::R11, Reg::R8);
    asm.alui(AluOp::Mul, Reg::R11, cfg.img_bytes);
    asm.alui_add(Reg::R11, img);
    asm.imm(Reg::R9, 3); // decode passes
    let hp = asm.new_label();
    asm.bind(hp);
    asm.mov(Reg::R13, Reg::R11);
    asm.imm(Reg::R12, cfg.img_bytes / 64);
    let ht = asm.new_label();
    asm.bind(ht);
    asm.load(Reg::R6, Reg::R13, 0);
    asm.burst(6);
    asm.store(Reg::R6, Reg::R13, 8);
    asm.alui_add(Reg::R13, 64);
    asm.alui_sub(Reg::R12, 1);
    asm.br(Cond::Ne, Reg::R12, Reg::R2, ht);
    asm.alui_sub(Reg::R9, 1);
    asm.br(Cond::Ne, Reg::R9, Reg::R2, hp);
    asm.halt();

    Ok(FirefoxImage {
        entry_main: "fx_main",
        entry_helper: "fx_helper",
        regions: FirefoxRegions { task: task_ids },
        cfg: cfg.clone(),
    })
}

/// A completed Firefox run.
#[derive(Debug)]
pub struct FirefoxRun {
    /// The finished session.
    pub session: Session,
    /// The emitted image.
    pub image: FirefoxImage,
    /// The kernel's run report.
    pub report: RunReport,
}

/// Builds the Firefox workload — session configured per `cfg.mode`, all
/// threads spawned — without running it, so the caller can attach a
/// flight recorder or drive the kernel itself (see
/// [`crate::mysqld::build`]).
pub fn build(
    cfg: &FirefoxConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<(Session, FirefoxImage)> {
    let builder = SessionBuilder::new(cores).kernel_config(kernel_cfg);
    build_on(cfg, reader, builder, events)
}

/// [`build`] on a caller-configured session builder (a full
/// `MachineParams` machine, an explicit interpreter mode): the
/// [`crate::Workload::build`] entry point.
pub(crate) fn build_on(
    cfg: &FirefoxConfig,
    reader: &dyn CounterReader,
    builder: SessionBuilder,
    events: &[EventKind],
) -> SimResult<(Session, FirefoxImage)> {
    let (mut session, image) =
        crate::assemble(builder, events, cfg.mode, |asm, layout, regions| {
            emit(asm, layout, regions, reader, cfg)
        })?;
    session.spawn_instrumented(image.entry_main, &[cfg.seed])?;
    for h in 0..cfg.helpers {
        session.spawn_instrumented(image.entry_helper, &[h as u64])?;
    }
    Ok((session, image))
}

/// Builds, runs, and returns the Firefox workload under the given reader.
pub fn run(
    cfg: &FirefoxConfig,
    reader: &dyn CounterReader,
    cores: usize,
    events: &[EventKind],
    kernel_cfg: KernelConfig,
) -> SimResult<FirefoxRun> {
    let (mut session, image) = build(cfg, reader, cores, events, kernel_cfg)?;
    let report = session.run()?;
    Ok(FirefoxRun {
        session,
        image,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use limit::reader::{LimitReader, NullReader};

    fn small_cfg() -> FirefoxConfig {
        FirefoxConfig {
            tasks: 120,
            helpers: 1,
            dom_bytes: 64 << 10,
            heap_bytes: 256 << 10,
            fb_bytes: 64 << 10,
            img_bytes: 64 << 10,
            ..Default::default()
        }
    }

    #[test]
    fn weights_must_sum_to_1024() {
        let mut c = small_cfg();
        c.weights = [1, 1, 1, 1, 1];
        assert!(c.validate().is_err());
        assert!(small_cfg().validate().is_ok());
    }

    #[test]
    fn uninstrumented_run_completes() {
        let run = run(
            &small_cfg(),
            &NullReader::new(),
            2,
            &[],
            KernelConfig::default(),
        )
        .unwrap();
        assert!(run.report.total_cycles > 0);
    }

    #[test]
    fn task_mix_matches_weights_roughly() {
        let events = [EventKind::Cycles];
        let reader = LimitReader::with_events(events.to_vec());
        let cfg = FirefoxConfig {
            tasks: 600,
            ..small_cfg()
        };
        let run = run(&cfg, &reader, 2, &events, KernelConfig::default()).unwrap();
        let records = run.session.all_records().unwrap();
        let count = |id: u64| records.iter().filter(|(_, r)| r.region == id).count() as f64;
        let total: f64 = run.image.regions.task.iter().map(|&id| count(id)).sum();
        assert!((total - 600.0).abs() < 1.0, "one record per task: {total}");
        // UI should dominate; GC should be rare.
        let ui = count(run.image.regions.task[0]) / total;
        let gc = count(run.image.regions.task[4]) / total;
        assert!(ui > 0.3, "ui fraction {ui}");
        assert!(gc < 0.08, "gc fraction {gc}");
    }

    #[test]
    fn task_classes_have_distinct_cycle_signatures() {
        let events = [EventKind::Cycles];
        let reader = LimitReader::with_events(events.to_vec());
        let cfg = FirefoxConfig {
            tasks: 400,
            ..small_cfg()
        };
        let run = run(&cfg, &reader, 1, &events, KernelConfig::default()).unwrap();
        let records = run.session.all_records().unwrap();
        let mean = |id: u64| {
            let v: Vec<u64> = records
                .iter()
                .filter(|(_, r)| r.region == id)
                .map(|(_, r)| r.deltas[0])
                .collect();
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<u64>() as f64 / v.len() as f64
            }
        };
        let ui = mean(run.image.regions.task[0]);
        let gc = mean(run.image.regions.task[4]);
        assert!(ui > 0.0);
        // GC tasks are an order of magnitude (or more) longer than UI.
        assert!(gc > 8.0 * ui, "ui={ui} gc={gc}");
    }

    #[test]
    fn task_pc_ranges_are_exported() {
        let mut asm = Asm::new();
        let mut layout = MemLayout::default();
        let mut regions = Regions::new();
        emit(
            &mut asm,
            &mut layout,
            &mut regions,
            &NullReader::new(),
            &small_cfg(),
        )
        .unwrap();
        let prog = asm.assemble().unwrap();
        for class in TASK_CLASSES {
            assert!(
                prog.range(&format!("fx.task.{class}")).is_ok(),
                "missing range for {class}"
            );
        }
    }
}
