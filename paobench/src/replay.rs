//! In-process replay of a run's query/ECO sequence against
//! [`OracleService`], for the service and incremental layer rows.

use crate::cold::World;
use crate::inputs::{EcoPair, Query};
use crate::stats::Ops;
use pao_core::{EcoMove, EcoTarget, OracleService, PaoConfig, RunBudget};
use pao_geom::Point;
use std::time::Instant;

/// Timers and per-ECO statistics of one replay.
#[derive(Default)]
pub struct Replay {
    pub pin_access_us: Vec<f64>,
    pub eco_s: Vec<f64>,
    pub eco_apgen_s: Vec<f64>,
    pub eco_pattern_s: Vec<f64>,
    pub eco_cluster_s: Vec<f64>,
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub full: usize,
    pub ops: Ops,
    pub dump: String,
}

/// Starts a service on `world` and plays every ECO of `pairs`, with
/// `queries_per_eco` of `queries` after each one.
pub fn replay(
    world: &World,
    threads: usize,
    queries: &[Query],
    pairs: &[EcoPair],
    queries_per_eco: usize,
) -> Replay {
    let config = PaoConfig {
        threads,
        ..PaoConfig::default()
    };
    let mut svc = OracleService::start(
        world.tech.clone(),
        world.design.clone(),
        config,
        RunBudget::unlimited(),
        false,
    );
    let mut out = Replay::default();
    let mut qi = 0;
    for k in 0..pairs.len() * 2 {
        let pair = &pairs[k / 2];
        let moves = [EcoMove {
            inst: pair.inst.clone(),
            target: EcoTarget::Delta(Point {
                x: pair.dx_of(k),
                y: 0,
            }),
        }];
        let t = Instant::now();
        let reply = svc.eco_update(&moves, None, None);
        out.eco_s.push(t.elapsed().as_secs_f64());
        out.ops.record(reply.as_ref().is_ok_and(|r| r.moved == 1));
        if let Ok(r) = reply {
            out.cache_hits += r.cache_hits;
            out.cache_misses += r.cache_misses;
            out.full += usize::from(r.full_reanalysis);
        }
        let s = &svc.result().stats;
        out.eco_apgen_s.push(s.apgen_time.as_secs_f64());
        out.eco_pattern_s.push(s.pattern_time.as_secs_f64());
        out.eco_cluster_s.push(s.cluster_time.as_secs_f64());
        for _ in 0..queries_per_eco {
            let q = &queries[qi % queries.len()];
            qi += 1;
            let t = Instant::now();
            let ok = match q.method {
                "get_pin_access" => svc.pin_access(&q.inst, &q.pin).is_ok(),
                "get_instance_patterns" => svc.instance_patterns(&q.inst).is_ok(),
                _ => svc.cluster_selection(&q.inst).is_ok(),
            };
            if q.method == "get_pin_access" {
                out.pin_access_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            out.ops.record(ok);
        }
    }
    out.dump = svc.selection_dump();
    out
}
