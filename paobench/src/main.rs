//! `paobench` — the seeded benchmark of the PAAF pin access oracle.
//!
//! ```text
//! python3 paobench/run.py --workload cold_unique --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `run.py` builds this binary and the `pao` CLI, then runs it with
//! `--pao`, `--work` and `--rev` added. Each workload generates its
//! LEF/DEF from the seed, times the cold `analyze` path in this process
//! and the `pao serve` query/ECO path over a Unix socket, checks the
//! outputs, and prints one JSON result line last. See `README.md`.

mod cold;
mod inputs;
mod replay;
mod serve;
mod stats;

use inputs::Shape;
use serve::{EcoPace, Load, LoadRun, Rec};
use stats::{frac, mean, median, quantile, tail, Metrics, Ops};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Every timing is reported as this lower quantile (for a higher-is-
/// better share, the matching upper quantile) over the run's repeated
/// samples, rounds or slices. On a shared host, co-tenant load slows
/// stretches of several seconds by up to half; those stretches move a
/// median across runs, while the fast end keeps measuring the program.
const FLOOR_Q: f64 = 0.1;
/// A query answered later than this counts as a miss in `query_ok_frac`.
const QUERY_LIMIT_MS: f64 = 10.0;
/// A run whose generator sent its p99 request later than this did not
/// keep its schedule.
const LATE_LIMIT_MS: f64 = 50.0;
/// Queries still unanswered this long after the query schedule ended
/// mean the daemon fell behind the offered load.
const DRAIN_LIMIT: Duration = Duration::from_millis(250);
/// ECO pairs per round or slice: one that keeps the moved cell's
/// signature and one that gives it a new one.
const PAIRS_PER_SLICE: usize = 2;
/// Analyze pairs `serve_mixed` times before its daemon starts and again
/// after it stops, so a slow stretch of the host cannot cover them all.
const SERVE_COLD_PAIRS: usize = 8;
/// `serve_mixed` load per slice: its four ECOs come ~1.1 s apart, so the
/// daemon re-analyzes about a quarter of the time.
const SLICE_SECONDS: f64 = 4.4;
/// Upper bound on the rounds of a cold workload.
const MAX_ROUNDS: usize = 64;

/// How one workload is run.
struct Spec {
    shape: Shape,
    /// Cold workloads time LEF+DEF parses as set-up (`setup_reps` before
    /// the first round, then one per round); `serve_mixed` times
    /// `setup_reps` daemon start-ups.
    serve_setup: bool,
    setup_reps: usize,
    paper_checks: bool,
    /// Cold workloads: fewest rounds. `serve_mixed`: fewest slices of its
    /// load, which gets one slice per [`SLICE_SECONDS`] of `--seconds`.
    rounds: usize,
    query_rate: f64,
    /// Cold workloads: the idle query burst of each round. `serve_mixed`:
    /// the idle stretch before its first ECO.
    lead: Duration,
    profile_reps: usize,
}

fn spec(workload: &str) -> Option<Spec> {
    let ms = Duration::from_millis;
    Some(match workload {
        "cold_unique" => Spec {
            shape: Shape::Test6,
            serve_setup: false,
            setup_reps: 3,
            paper_checks: true,
            rounds: 3,
            query_rate: 200.0,
            lead: ms(500),
            profile_reps: 3,
        },
        "cold_placement" => Spec {
            shape: Shape::Scale("scale_200k"),
            serve_setup: false,
            setup_reps: 3,
            paper_checks: true,
            rounds: 2,
            // Few enough that the queries queued behind a 2 s ECO fit in
            // the socket buffer, so the generator never blocks on a send.
            query_rate: 40.0,
            lead: ms(500),
            profile_reps: 2,
        },
        "serve_mixed" => Spec {
            shape: Shape::Scale("scale_20k"),
            serve_setup: true,
            setup_reps: 5,
            paper_checks: false,
            rounds: 1,
            query_rate: 200.0,
            lead: ms(500),
            profile_reps: 3,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pao: PathBuf,
    work: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut get = std::collections::HashMap::new();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if get.insert(flag.clone(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |k: &str| get.remove(k).ok_or(format!("missing {k}"));
    let args = Args {
        workload: take("--workload")?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        },
        pao: take("--pao")?.into(),
        work: take("--work")?.into(),
        rev: take("--rev")?,
    };
    if let Some(k) = get.keys().next() {
        return Err(format!("unknown flag {k}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        let spec = spec(&args.workload).ok_or(format!("unknown workload {}", args.workload))?;
        let dir = args.work.join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let out = run(&args, &spec, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        out
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("paobench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Latency statistics of one round or slice of the load.
struct SliceStats {
    query_p50: f64,
    query_p99: f64,
    query_ok: f64,
    eco_p50: f64,
    eco_max: f64,
}

fn slice_stats(queries: &[Rec], ecos: &[Rec]) -> SliceStats {
    let q: Vec<f64> = queries.iter().filter_map(Rec::latency_ms).collect();
    let e: Vec<f64> = ecos.iter().filter_map(Rec::latency_ms).collect();
    let ok = queries
        .iter()
        .filter(|r| r.ok && r.latency_ms().is_some_and(|l| l <= QUERY_LIMIT_MS))
        .count();
    SliceStats {
        query_p50: quantile(&q, 0.5),
        query_p99: quantile(&q, 0.99),
        query_ok: frac(ok as f64, queries.len() as f64),
        eco_p50: median(&e),
        eco_max: e.iter().copied().fold(0.0, f64::max),
    }
}

/// Runs one workload and returns the result line.
fn run(args: &Args, spec: &Spec, dir: &Path) -> Result<String, String> {
    let threads = pao_core::default_threads();
    let files = inputs::write_design(spec.shape, args.seed, dir).map_err(|e| e.to_string())?;
    let mut setup = cold::parse(&files, if spec.serve_setup { 1 } else { spec.setup_reps })?;
    let world = &setup.world;
    let n_slices = if spec.serve_setup {
        let per = ((args.seconds - spec.lead.as_secs_f64()) / SLICE_SECONDS).round();
        spec.rounds.max(per as usize)
    } else {
        MAX_ROUNDS
    };
    let n_pairs = PAIRS_PER_SLICE * n_slices;
    let plan = inputs::plan(&world.tech, &world.design, args.seed, 1024, n_pairs)?;
    let mut cold = cold::Cold::new(world, threads, spec.paper_checks);
    let mut ops = Ops::default();
    let mut log = String::new();

    let socket = dir.join("s.sock");
    let probe = plan.queries[0].request(0);
    let serve_pairs = if args.trace { 1 } else { SERVE_COLD_PAIRS };
    if spec.serve_setup {
        for _ in 0..serve_pairs {
            cold.pair(world, threads);
        }
    }
    let spawn = || serve::Daemon::spawn(&args.pao, &files, &socket, threads, &probe);
    let (daemon, secs) = spawn().map_err(|e| e.to_string())?;
    let mut setup_s = vec![secs.as_secs_f64()];
    let rtt_us = serve::idle_rtt_us(&daemon, &plan.queries, 300).map_err(|e| e.to_string())?;

    // Cold workloads: rounds of one analyze pair, then a query burst that
    // runs idle for `lead` and on through the first of two back-to-back
    // ECO pairs, until `--seconds` have passed.
    // serve_mixed: one open-loop load, cut into slices of two ECO pairs,
    // between two blocks of analyze pairs.
    let mut loads: Vec<LoadRun> = Vec::new();
    let mut slices: Vec<SliceStats> = Vec::new();
    let err = |e: std::io::Error| e.to_string();
    if spec.serve_setup {
        let n_ecos = 2 * plan.pairs.len();
        let span = (args.seconds - spec.lead.as_secs_f64()).max(0.1);
        let period = Duration::from_secs_f64(span / n_ecos as f64);
        let load = Load {
            query_rate: spec.query_rate,
            lead: spec.lead,
            pace: EcoPace::Every(period),
            overlap_ecos: usize::MAX,
        };
        let run = serve::run_load(&daemon, &plan.queries, &plan.pairs, load).map_err(err)?;
        let per = 2 * PAIRS_PER_SLICE;
        for s in 0..n_slices {
            let end = spec.lead + period * ((s + 1) * per) as u32;
            let qs: Vec<Rec> = run
                .queries
                .iter()
                .filter(|q| {
                    let start = spec.lead + period * (s * per) as u32;
                    (s == 0 || q.due >= start) && (s + 1 == n_slices || q.due < end)
                })
                .copied()
                .collect();
            let es = run.ecos.get(s * per..((s + 1) * per).min(run.ecos.len()));
            slices.push(slice_stats(&qs, es.unwrap_or_default()));
        }
        loads.push(run);
    } else {
        let load = Load {
            query_rate: spec.query_rate,
            lead: spec.lead,
            pace: EcoPace::BackToBack,
            overlap_ecos: 1,
        };
        let t0 = Instant::now();
        let window = Duration::from_secs_f64(args.seconds);
        let rounds = if args.trace { 1 } else { spec.rounds };
        let mut r = 0;
        while r < MAX_ROUNDS && (r < rounds || (!args.trace && t0.elapsed() < window)) {
            let more = cold::parse(&files, 1)?;
            setup.lef_s.extend(more.lef_s);
            setup.def_s.extend(more.def_s);
            cold.pair(world, threads);
            let pairs = &plan.pairs[r * PAIRS_PER_SLICE..(r + 1) * PAIRS_PER_SLICE];
            // Each round starts at another place in the query pool.
            let queries = &plan.queries[(r * 64) % 512..];
            let run = serve::run_load(&daemon, queries, pairs, load).map_err(err)?;
            slices.push(slice_stats(&run.queries, &run.ecos));
            loads.push(run);
            r += 1;
        }
    }
    let self_rss = serve::peak_rss_mb("/proc/self/status");
    let daemon_dump = serve::dump_selection(&daemon).map_err(err)?;
    let daemon_rss = daemon.peak_rss_mb();
    daemon.shutdown().map_err(err)?;
    if spec.serve_setup {
        // Further start-ups are spread over the analyze pairs, so a slow
        // stretch of the host cannot cover all of them.
        for _ in 0..serve_pairs {
            cold.pair(world, threads);
            if setup_s.len() < spec.setup_reps {
                let (d, secs) = spawn().map_err(err)?;
                setup_s.push(secs.as_secs_f64());
                d.shutdown().map_err(err)?;
            }
        }
    }

    log.push_str(&cold.log);
    ops.add(cold.ops);
    let dump_ok = daemon_dump == cold.reference;
    ops.record(dump_ok);
    if !dump_ok {
        log.push_str("CHECK FAILED: daemon dump_selection after the ECO pairs != cold analyze\n");
    }
    let queries: Vec<Rec> = loads
        .iter()
        .flat_map(|l| l.queries.iter().copied())
        .collect();
    let ecos: Vec<Rec> = loads.iter().flat_map(|l| l.ecos.iter().copied()).collect();
    for r in queries.iter().chain(&ecos) {
        ops.record(r.ok && r.done.is_some());
    }
    let late_p99 = quantile(
        &queries
            .iter()
            .chain(&ecos)
            .map(Rec::late_ms)
            .collect::<Vec<_>>(),
        0.99,
    );
    let stuck: usize = loads
        .iter()
        .map(|l| {
            l.queries
                .iter()
                .filter(|r| r.done.is_none_or(|d| d > l.stop + DRAIN_LIMIT))
                .count()
        })
        .sum();
    let valid = late_p99 <= LATE_LIMIT_MS && stuck == 0;
    if !valid {
        let _ = writeln!(
            log,
            "INVALID RUN: generator late p99 {late_p99:.3} ms (limit {LATE_LIMIT_MS}), {stuck} queries backlogged past the end of their schedule"
        );
    }
    for (label, v) in [
        ("analyze_s", &cold.analyze_s),
        ("analyze_1t_s", &cold.analyze_1t_s),
    ] {
        let _ = writeln!(
            log,
            "{label}: {} samples, p10 {:.4} median {:.4} max {:.4}",
            v.len(),
            quantile(v, FLOOR_Q),
            median(v),
            quantile(v, 1.0)
        );
    }
    let e_ms: Vec<f64> = ecos.iter().filter_map(Rec::latency_ms).collect();
    let q_ms: Vec<f64> = queries.iter().filter_map(Rec::latency_ms).collect();
    let (pooled_tail, tail_pct) = tail(&e_ms);
    let _ = writeln!(
        log,
        "{} slices; pooled: {} queries p50 {:.3} p99 {:.3} ms; {} ECOs p50 {:.1} ms, p{tail_pct:.0} {pooled_tail:.1} ms; {} full re-analyses",
        slices.len(),
        q_ms.len(),
        quantile(&q_ms, 0.5),
        quantile(&q_ms, 0.99),
        e_ms.len(),
        quantile(&e_ms, 0.5),
        ecos.iter().filter(|r| r.full).count()
    );

    let mut m = Metrics::default();
    if args.trace {
        let trace_dir = args.work.join("traces");
        std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
        let stem = format!("{}-seed{}", args.workload, args.seed);
        let rows = cold::profile(
            world,
            &setup,
            threads,
            spec.profile_reps,
            &trace_dir.join(format!("{stem}.analyze.json")),
            &mut m,
        )?;
        log.push_str(&rows);
        pao_obs::enable_metrics();
        pao_obs::enable_trace();
        let rp = replay::replay(
            world,
            threads,
            &plan.queries,
            &plan.pairs[..PAIRS_PER_SLICE],
            4,
        );
        pao_obs::disable_all();
        std::fs::write(
            trace_dir.join(format!("{stem}.replay.json")),
            pao_obs::trace::take_trace().to_chrome_json(),
        )
        .map_err(|e| e.to_string())?;
        pao_obs::reset();
        ops.add(rp.ops);
        let replay_ok = rp.dump == cold.reference;
        ops.record(replay_ok);
        if !replay_ok {
            log.push_str("CHECK FAILED: in-process replay dump != cold analyze\n");
        }
        layer_metrics(&mut m, &loads, late_p99, &rtt_us, &rp);
    } else {
        let floor = |f: fn(&SliceStats) -> f64| {
            quantile(&slices.iter().map(f).collect::<Vec<_>>(), FLOOR_Q)
        };
        let setup_s = if spec.serve_setup {
            setup_s
        } else {
            setup.total_s()
        };
        let rss = if spec.serve_setup {
            daemon_rss
        } else {
            self_rss
        };
        m.put("setup_s", quantile(&setup_s, FLOOR_Q), "s");
        m.put("analyze_s", quantile(&cold.analyze_s, FLOOR_Q), "s");
        m.put("analyze_1t_s", quantile(&cold.analyze_1t_s, FLOOR_Q), "s");
        m.put("peak_rss_mb", rss.unwrap_or(0.0), "MiB");
        m.put("query_p50_ms", floor(|s| s.query_p50), "ms");
        m.put("query_p99_ms", floor(|s| s.query_p99), "ms");
        m.put(
            "query_ok_frac",
            quantile(
                &slices.iter().map(|s| s.query_ok).collect::<Vec<_>>(),
                1.0 - FLOOR_Q,
            ),
            "frac",
        );
        m.put("eco_p50_ms", floor(|s| s.eco_p50), "ms");
        m.put("eco_tail_ms", floor(|s| s.eco_max), "ms");
        m.put(
            "ok_ops_frac",
            frac((ops.attempted - ops.failed) as f64, ops.attempted as f64),
            "frac",
        );
    }

    let correct = ops.failed == 0 && valid;
    println!(
        "stamp {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{threads},\"analysis_threads\":{threads},\"daemon_threads\":{threads},\"client_threads\":2,\"client_connections\":2,\"rev\":\"{}\",\"valid\":{valid},\"gen_late_p99_ms\":{late_p99:.4}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev
    );
    print!("{log}");
    print!("{}", m.table());
    Ok(stats::result_line(correct, ops, &m))
}

/// Serve, service and incremental rows of a traced run.
fn layer_metrics(
    m: &mut Metrics,
    loads: &[LoadRun],
    late_p99_ms: f64,
    rtt_us: &[f64],
    rp: &replay::Replay,
) {
    let (mut blocked, mut idle) = (Vec::new(), Vec::new());
    for load in loads {
        let in_flight: Vec<(Duration, Duration)> = load
            .ecos
            .iter()
            .map(|e| (e.sent, e.done.unwrap_or(load.stop)))
            .collect();
        for q in &load.queries {
            let Some(lat) = q.latency_ms() else { continue };
            if in_flight.iter().any(|&(a, b)| q.sent >= a && q.sent <= b) {
                blocked.push(lat);
            } else {
                idle.push(lat);
            }
        }
    }
    let pin_access_us = median(&rp.pin_access_us);
    m.put("service.pin_access_us", pin_access_us, "us");
    m.put("service.eco_s", median(&rp.eco_s), "s");
    m.put("serve.wire_us", median(rtt_us) - pin_access_us, "us");
    m.put(
        "serve.query_blocked_frac",
        frac(blocked.len() as f64, (blocked.len() + idle.len()) as f64),
        "frac",
    );
    m.put("serve.query_blocked_p50_ms", quantile(&blocked, 0.5), "ms");
    m.put("serve.query_idle_p50_ms", quantile(&idle, 0.5), "ms");
    m.put("gen.late_p99_ms", late_p99_ms, "ms");
    let looked_up = (rp.cache_hits + rp.cache_misses) as f64;
    m.put(
        "eco.cache_hit_frac",
        frac(rp.cache_hits as f64, looked_up),
        "frac",
    );
    m.put(
        "eco.full_reanalysis_frac",
        frac(rp.full as f64, rp.eco_s.len() as f64),
        "frac",
    );
    // Means, not medians: most ECOs skip apgen and pattern entirely.
    m.put("eco.apgen_s", mean(&rp.eco_apgen_s), "s");
    m.put("eco.pattern_s", mean(&rp.eco_pattern_s), "s");
    m.put("eco.cluster_s", mean(&rp.eco_cluster_s), "s");
}
