//! The cold side: parse, `analyze` at `nproc` and at one thread, and the
//! traced per-layer profile.

use crate::inputs::Files;
use crate::stats::{frac, median, Metrics, Ops};
use pao_core::{PaoConfig, PaoResult, PinAccessOracle};
use pao_design::Design;
use pao_tech::Tech;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A parsed LEF/DEF pair.
pub struct World {
    pub tech: Tech,
    pub design: Design,
}

/// Parse timings; the last parse is kept.
pub struct Setup {
    pub lef_s: Vec<f64>,
    pub def_s: Vec<f64>,
    pub world: World,
}

impl Setup {
    /// LEF + DEF parse seconds, one entry per repetition.
    pub fn total_s(&self) -> Vec<f64> {
        self.lef_s
            .iter()
            .zip(&self.def_s)
            .map(|(a, b)| a + b)
            .collect()
    }
}

/// Parses the pair `reps` times (reading each file is part of its parse).
pub fn parse(files: &Files, reps: usize) -> Result<Setup, String> {
    let mut lef_s = Vec::with_capacity(reps);
    let mut def_s = Vec::with_capacity(reps);
    let mut world = None;
    for _ in 0..reps.max(1) {
        drop(world.take());
        let t = Instant::now();
        let text = std::fs::read_to_string(&files.lef).map_err(|e| e.to_string())?;
        let tech = pao_tech::lef::parse_lef(&text).map_err(|e| e.to_string())?;
        lef_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let design =
            pao_design::def::parse_def_file(&files.def, &tech).map_err(|e| e.to_string())?;
        def_s.push(t.elapsed().as_secs_f64());
        world = Some(World { tech, design });
    }
    let world = world.ok_or("no parse ran")?;
    Ok(Setup {
        lef_s,
        def_s,
        world,
    })
}

fn oracle(threads: usize) -> PinAccessOracle {
    PinAccessOracle::with_config(PaoConfig {
        threads,
        ..PaoConfig::default()
    })
}

/// One timed `analyze`.
pub fn analyze(world: &World, threads: usize) -> (f64, PaoResult) {
    let oracle = oracle(threads);
    let t = Instant::now();
    let result = oracle.analyze(&world.tech, &world.design);
    (t.elapsed().as_secs_f64(), std::hint::black_box(result))
}

/// Timed analyses and their output checks.
pub struct Cold {
    pub analyze_s: Vec<f64>,
    pub analyze_1t_s: Vec<f64>,
    pub ops: Ops,
    /// `selection_dump` of the first analysis; every later one must match.
    pub reference: String,
    pub log: String,
    paper_checks: bool,
}

impl Cold {
    /// Runs the untimed first analysis, whose dump is the reference. With
    /// `paper_checks`, every result must also have zero dirty APs and
    /// zero failed pins.
    pub fn new(world: &World, threads: usize, paper_checks: bool) -> Cold {
        let (_, first) = analyze(world, threads);
        let mut cold = Cold {
            analyze_s: Vec::new(),
            analyze_1t_s: Vec::new(),
            ops: Ops::default(),
            reference: pao_core::service::selection_dump(&world.design, &first),
            log: String::new(),
            paper_checks,
        };
        let _ = writeln!(
            cold.log,
            "cold: {} components, {} unique instances, dirty_aps {}, failed_pins {}",
            world.design.components().len(),
            first.stats.unique_instances,
            first.stats.dirty_aps,
            first.stats.failed_pins
        );
        cold
    }

    /// Times `analyze` at `threads` and at one thread, in alternating
    /// order, and checks both outputs.
    pub fn pair(&mut self, world: &World, threads: usize) {
        let order = if self.analyze_s.len().is_multiple_of(2) {
            [threads, 1]
        } else {
            [1, threads]
        };
        for t in order {
            let (secs, result) = analyze(world, t);
            let s = &result.stats;
            let paper_ok = !self.paper_checks || (s.dirty_aps == 0 && s.failed_pins == 0);
            let same = pao_core::service::selection_dump(&world.design, &result) == self.reference;
            if !paper_ok || !same {
                let _ = writeln!(
                    self.log,
                    "CHECK FAILED: analyze at {t} thread(s): dirty_aps {}, failed_pins {}, dump identical {same}",
                    s.dirty_aps, s.failed_pins
                );
            }
            self.ops.record(paper_ok && same);
            if t == 1 {
                self.analyze_1t_s.push(secs);
            } else {
                self.analyze_s.push(secs);
            }
        }
    }
}

/// Sum of the durations of spans named `name`, in seconds.
fn span_s(dump: &pao_obs::trace::TraceDump, name: &str) -> f64 {
    dump.events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.dur_ns as f64 / 1e9)
        .sum()
}

/// Disjoint, sorted union of the item spans (every span that is not a
/// `phase.*` span), in nanoseconds.
fn item_cover(dump: &pao_obs::trace::TraceDump) -> Vec<(u64, u64)> {
    let mut spans: Vec<(u64, u64)> = dump
        .events
        .iter()
        .filter(|e| !e.name.starts_with("phase."))
        .map(|e| (e.start_ns, e.start_ns + e.dur_ns))
        .collect();
    spans.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (a, b) in spans {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// Seconds of `[from, to)` that `cover` overlaps.
fn covered_s(cover: &[(u64, u64)], from: u64, to: u64) -> f64 {
    let ns: u64 = cover
        .iter()
        .map(|&(a, b)| b.min(to).saturating_sub(a.max(from)))
        .sum();
    ns as f64 / 1e9
}

/// Self time of the `name` phase spans: their duration not covered by
/// any item span, in seconds.
fn self_s(dump: &pao_obs::trace::TraceDump, cover: &[(u64, u64)], name: &str) -> f64 {
    dump.events
        .iter()
        .filter(|e| e.name == name)
        .map(|e| e.dur_ns as f64 / 1e9 - covered_s(cover, e.start_ns, e.start_ns + e.dur_ns))
        .sum()
}

fn busy_s(r: &pao_core::ExecReport) -> f64 {
    r.total_busy_us() as f64 / 1e6
}

fn util(busy: f64, wall: f64, r: &pao_core::ExecReport) -> f64 {
    frac(busy, wall * r.threads.max(1) as f64)
}

/// Runs `f` while a second thread keeps draining the span sink, so a
/// large design's item spans never reach the sink's cap and crowd out
/// the phase spans the main thread flushes last.
fn drained<R>(f: impl FnOnce() -> R) -> Result<(R, pao_obs::trace::TraceDump), String> {
    let done = AtomicBool::new(false);
    let (out, mut all) = std::thread::scope(|s| {
        let drain = s.spawn(|| {
            let mut got = pao_obs::trace::TraceDump::default();
            while !done.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(20));
                let d = pao_obs::trace::take_trace();
                got.events.extend(d.events);
                got.dropped += d.dropped;
            }
            got
        });
        let out = f();
        done.store(true, Ordering::SeqCst);
        drain
            .join()
            .map(|got| (out, got))
            .map_err(|_| "the span drain thread panicked".to_owned())
    })?;
    let last = pao_obs::trace::take_trace();
    all.events.extend(last.events);
    all.dropped += last.dropped;
    all.tracks = last.tracks;
    Ok((out, all))
}

fn timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut out = f();
    for _ in 0..reps {
        let t = Instant::now();
        out = std::hint::black_box(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (median(&secs), out)
}

/// Per-layer rows of one workload's design: external timers around the
/// public calls, then `reps` untraced and `reps` traced analyses
/// (alternating) for the spans, counters and executor reports. The
/// spans of the last traced analysis are written to `trace_out`.
pub fn profile(
    world: &World,
    setup: &Setup,
    threads: usize,
    reps: usize,
    trace_out: &Path,
    m: &mut Metrics,
) -> Result<String, String> {
    let (tech, design) = (&world.tech, &world.design);
    m.put("tech.parse_lef_s", median(&setup.lef_s), "s");
    m.put("design.parse_def_s", median(&setup.def_s), "s");
    let (extract_s, unique) = timed(3, || {
        pao_core::unique::extract_unique_instances(tech, design)
    });
    m.put("unique.extract_s", extract_s, "s");
    m.put("unique.instances", unique.len() as f64, "count");
    drop(unique);
    let (build_s, _) = timed(3, || pao_core::cluster::build_clusters(tech, design));
    m.put("cluster.build_s", build_s, "s");

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        plain.push(analyze(world, threads).0);
        pao_obs::reset();
        pao_obs::enable_metrics();
        pao_obs::enable_trace();
        let ((secs, result), dump) = drained(|| analyze(world, threads))?;
        pao_obs::disable_all();
        traced.push(secs);
        last = Some((secs, result, dump));
    }
    pao_obs::reset();
    let (wall, result, dump) = last.ok_or("no traced analysis ran")?;
    std::fs::write(trace_out, dump.to_chrome_json()).map_err(|e| e.to_string())?;
    let s = &result.stats;
    let c = |name: &str| s.metrics.counter(name) as f64;
    let prefixed = |prefix: &str| -> f64 {
        s.metrics
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v as f64)
            .sum()
    };

    let apgen_wall = s.apgen_time.as_secs_f64();
    let pattern_wall = s.pattern_time.as_secs_f64();
    let cluster_wall = s.cluster_time.as_secs_f64();
    let (select, repair, audit) = (
        span_s(&dump, "phase.select"),
        span_s(&dump, "phase.repair"),
        span_s(&dump, "phase.audit"),
    );
    let untraced = cluster_wall - select - repair - audit;
    let cover = item_cover(&dump);
    let items = covered_s(&cover, 0, u64::MAX);
    let self_times: Vec<f64> = [
        "phase.apgen",
        "phase.pattern",
        "phase.select",
        "phase.repair",
        "phase.audit",
    ]
    .iter()
    .map(|name| self_s(&dump, &cover, name))
    .collect();

    let apgen_busy = busy_s(&s.apgen_exec);
    m.put("apgen.wall_s", apgen_wall, "s");
    m.put("apgen.busy_s", apgen_busy, "s");
    m.put(
        "apgen.util",
        util(apgen_busy, apgen_wall, &s.apgen_exec),
        "frac",
    );
    m.put("drc.probes", c("drc.probes"), "count");
    m.put(
        "drc.early_exit_frac",
        frac(c("drc.early_exit"), c("drc.probes")),
        "frac",
    );
    let (memo_hits, memo_misses) = (c("apgen.via_memo.hits"), c("apgen.via_memo.misses"));
    m.put(
        "apgen.via_memo.hit_frac",
        frac(memo_hits, memo_hits + memo_misses),
        "frac",
    );
    m.put(
        "apgen.accept_frac",
        frac(prefixed("apgen.accepted."), prefixed("apgen.tried.")),
        "frac",
    );

    let pattern_busy = busy_s(&s.pattern_exec);
    m.put("pattern.wall_s", pattern_wall, "s");
    m.put("pattern.busy_s", pattern_busy, "s");
    m.put(
        "pattern.util",
        util(pattern_busy, pattern_wall, &s.pattern_exec),
        "frac",
    );
    m.put("pattern.dp_edges", c("pattern.dp_edges"), "count");
    m.put("pattern.compat_probes", c("pattern.compat_probes"), "count");

    let select_busy = busy_s(&s.cluster_exec);
    let tel = &s.select_telemetry;
    m.put("cluster.wall_s", cluster_wall, "s");
    m.put("select.span_s", select, "s");
    m.put("select.busy_s", select_busy, "s");
    m.put(
        "select.util",
        util(select_busy, select, &s.cluster_exec),
        "frac",
    );
    m.put("select.compat_probes", c("select.compat_probes"), "count");
    m.put(
        "select.edges_pruned_frac",
        frac(
            tel.edges_pruned as f64,
            (tel.edges + tel.edges_pruned) as f64,
        ),
        "frac",
    );
    m.put("select.self_s", self_times[2], "s");

    let repair_busy = busy_s(&s.repair_exec);
    let audit_busy = busy_s(&s.audit_exec);
    let scanned =
        c("repair.scan.fast_clean") + c("repair.scan.memo_hits") + c("repair.scan.memo_misses");
    m.put("repair.span_s", repair, "s");
    m.put("repair.busy_s", repair_busy, "s");
    m.put(
        "repair.util",
        util(repair_busy, repair, &s.repair_exec),
        "frac",
    );
    m.put(
        "repair.scan.fast_clean_frac",
        frac(c("repair.scan.fast_clean"), scanned),
        "frac",
    );
    m.put("repair.rounds", c("repair.rounds"), "count");
    m.put("repair.self_s", self_times[3], "s");
    m.put("audit.span_s", audit, "s");
    m.put("audit.busy_s", audit_busy, "s");
    m.put("audit.util", util(audit_busy, audit, &s.audit_exec), "frac");
    m.put("audit.self_s", self_times[4], "s");

    m.put("cluster.untraced_s", untraced, "s");
    m.put("trace.coverage_frac", frac(items, wall), "frac");
    m.put(
        "trace.overhead_frac",
        median(&traced) / median(&plain) - 1.0,
        "frac",
    );
    m.put("trace.dropped_spans", dump.dropped as f64, "count");

    let other = wall - apgen_wall - pattern_wall - cluster_wall;
    let mut rows = String::new();
    let _ = writeln!(
        rows,
        "traced analyze rows ({threads} threads); the rows sum to analyze_s, \
         and self is the part of a phase no item span covers:"
    );
    let phase_rows = [
        ("apgen.wall_s", apgen_wall),
        ("pattern.wall_s", pattern_wall),
        ("select.span_s", select),
        ("repair.span_s", repair),
        ("audit.span_s", audit),
    ];
    for ((name, v), own) in phase_rows.into_iter().zip(&self_times) {
        let _ = writeln!(
            rows,
            "  {name:<22} {v:>10.4} s {:>6.1}%   self {own:>8.4} s",
            100.0 * frac(v, wall)
        );
    }
    for (name, v) in [("cluster.untraced_s", untraced), ("outside phases", other)] {
        let _ = writeln!(
            rows,
            "  {name:<22} {v:>10.4} s {:>6.1}%",
            100.0 * frac(v, wall)
        );
    }
    let _ = writeln!(
        rows,
        "  {:<22} {wall:>10.4} s  = analyze_s of this traced run",
        "sum"
    );
    let _ = writeln!(
        rows,
        "  item spans cover {:.1}% of it (trace.coverage_frac)",
        100.0 * frac(items, wall)
    );
    Ok(rows)
}
