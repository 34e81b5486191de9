//! Service-layer determinism: concurrent queries against a resident
//! [`OracleService`] must be byte-identical to serial ones, an
//! `eco_update` + re-query must match a cold full re-analysis of the
//! moved design bit-for-bit, and a [`ServiceSnapshot`] taken before an
//! ECO must keep answering for the old placement after it.
//!
//! Reject collection stays off here — the decision ledger is
//! process-global and these tests run concurrently with others in this
//! binary; the ledger path is exercised end-to-end by the CLI serve test
//! and the `scripts/verify.sh` serve gate.

use pao_core::service::selection_dump;
use pao_core::{
    EcoMove, EcoTarget, OracleService, PaoConfig, PinAccessOracle, RunBudget, ServiceError,
    ServiceSnapshot,
};
use pao_design::CompId;
use pao_testgen::{generate, SuiteCase};
use std::sync::Arc;

fn start_service() -> OracleService {
    let (tech, design) = generate(&SuiteCase::small_smoke());
    OracleService::start(
        tech,
        design,
        PaoConfig::default(),
        RunBudget::unlimited(),
        false,
    )
}

/// Every query the determinism tests replay: one of each kind per
/// component, rendered to its debug string (typed replies are `Eq`, but
/// the byte-identity claim is easiest stated over the rendering).
fn query_all(svc: &ServiceSnapshot) -> Vec<String> {
    let design = svc.design().clone();
    let tech = svc.tech().clone();
    let mut out = Vec::new();
    for (ci, comp) in design.components().iter().enumerate() {
        let name: &str = &comp.name;
        let Some(master) = design.component(CompId(ci as u32)).master_in(&tech) else {
            continue;
        };
        for pin in &master.pins {
            out.push(format!("{:?}", svc.pin_access(name, &pin.name)));
        }
        out.push(format!("{:?}", svc.instance_patterns(name)));
        out.push(format!("{:?}", svc.cluster_selection(name)));
    }
    out.push(svc.selection_dump());
    out
}

#[test]
fn concurrent_queries_match_serial_byte_for_byte() {
    let svc = start_service();
    let snap = svc.snapshot();
    let serial = query_all(snap);
    assert!(serial.len() > 3, "smoke design should yield many queries");
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(|| query_all(snap))).collect();
        for h in handles {
            let threaded = h.join().unwrap();
            assert_eq!(serial, threaded, "concurrent replies diverged");
        }
    });
}

#[test]
fn unknown_queries_return_typed_errors() {
    let svc = start_service();
    assert_eq!(
        svc.pin_access("no_such_instance", "A"),
        Err(ServiceError::UnknownInstance("no_such_instance".to_owned()))
    );
    let design = svc.design().clone();
    let tech = svc.tech().clone();
    let comp = &design.components()[0];
    let master = design
        .component(CompId(0))
        .master_in(&tech)
        .expect("smoke components have masters");
    assert_eq!(
        svc.pin_access(&comp.name, "no_such_pin"),
        Err(ServiceError::UnknownPin {
            master: master.name.to_string(),
            pin: "no_such_pin".to_owned(),
        })
    );
    assert!(svc.instance_patterns("nope").is_err());
    assert!(svc.cluster_selection("nope").is_err());
}

/// Swapping two same-master instances preserves the signature set, so
/// the ECO must take the dirty-cluster fast path (zero cache misses) —
/// and still match a cold full analysis of the moved placement
/// bit-for-bit: same selection dump, same access points everywhere.
#[test]
fn eco_update_matches_cold_full_reanalysis() {
    let mut svc = start_service();
    let design = svc.design().clone();

    // Find two instances of the same master to swap.
    let comps = design.components();
    let (a, b) = 'found: {
        for i in 0..comps.len() {
            for j in (i + 1)..comps.len() {
                if comps[i].master == comps[j].master && comps[i].location != comps[j].location {
                    break 'found (i, j);
                }
            }
        }
        panic!("smoke design should repeat a master");
    };
    let moves = [
        EcoMove {
            inst: comps[a].name.to_string(),
            target: EcoTarget::Abs(comps[b].location),
        },
        EcoMove {
            inst: comps[b].name.to_string(),
            target: EcoTarget::Abs(comps[a].location),
        },
    ];

    let reply = svc.eco_update(&moves, None, None).expect("eco applies");
    assert_eq!(reply.moved, 2);
    assert_eq!(reply.eco_seq, 1);
    assert_eq!(svc.eco_updates(), 1);
    assert_eq!(
        reply.cache_misses, 0,
        "signature-preserving swap must stay on the dirty-cluster fast path"
    );
    assert!(!reply.full_reanalysis);

    // Cold reference: a fresh oracle over the moved placement.
    let (tech, mut moved) = generate(&SuiteCase::small_smoke());
    let loc_a = moved.components()[a].location;
    let loc_b = moved.components()[b].location;
    moved.component_mut(CompId(a as u32)).location = loc_b;
    moved.component_mut(CompId(b as u32)).location = loc_a;
    let cold = PinAccessOracle::new().analyze(&tech, &moved);

    assert_eq!(
        svc.selection_dump(),
        selection_dump(&moved, &cold),
        "eco result diverged from cold re-analysis"
    );
    let warm_design = svc.design().clone();
    let warm = svc.result().clone();
    assert!(
        warm.stats.counters_eq(&cold.stats),
        "eco counters diverged from cold re-analysis:\n{}\nvs\n{}",
        warm.stats,
        cold.stats
    );
    for ci in 0..moved.components().len() {
        let comp = CompId(ci as u32);
        let Some(master) = moved.component(comp).master_in(&tech) else {
            continue;
        };
        for pi in 0..master.pins.len() {
            assert_eq!(
                warm.access_point(&warm_design, comp, pi),
                cold.access_point(&moved, comp, pi),
                "access point diverged at comp {ci} pin {pi}"
            );
        }
    }
}

/// A snapshot cloned before an ECO is never touched by it: readers
/// holding it — including one querying *while* the ECO re-analyzes —
/// keep getting the old placement's answers, while a snapshot taken
/// after the ECO matches a cold analysis of the moved design.
#[test]
fn snapshot_before_eco_keeps_old_placement() {
    let mut svc = start_service();
    let old: Arc<ServiceSnapshot> = Arc::clone(svc.snapshot());
    let before = query_all(&old);
    let moved_inst = old.design().components()[0].name.to_string();
    let old_location = old.design().components()[0].location;
    let moves = [EcoMove {
        inst: moved_inst,
        target: EcoTarget::Delta(pao_geom::Point { x: 40, y: 0 }),
    }];

    let reply = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // Answers during the ECO come from the old snapshot.
            for _ in 0..4 {
                assert_eq!(query_all(&old), before, "old snapshot changed mid-ECO");
            }
        });
        let reply = svc.eco_update(&moves, None, None).expect("eco applies");
        reader.join().expect("reader thread");
        reply
    });
    assert_eq!(reply.eco_seq, 1);

    // The old snapshot still answers for the old placement …
    assert_eq!(
        query_all(&old),
        before,
        "old snapshot changed after the ECO"
    );
    assert_eq!(old.design().components()[0].location, old_location);
    assert_eq!(old.eco_updates(), 0);
    // … and the fresh one for the moved placement, like a cold analyze.
    let fresh = Arc::clone(svc.snapshot());
    assert!(!Arc::ptr_eq(&fresh, &old));
    assert_eq!(fresh.eco_updates(), 1);
    let (tech, mut moved) = generate(&SuiteCase::small_smoke());
    moved.component_mut(CompId(0)).location += pao_geom::Point { x: 40, y: 0 };
    let cold = PinAccessOracle::new().analyze(&tech, &moved);
    assert_eq!(fresh.selection_dump(), selection_dump(&moved, &cold));
    assert_ne!(
        query_all(&fresh),
        before,
        "the moved cell's die-frame access points must differ"
    );
}

/// An ECO naming a missing instance is rejected whole: nothing moves,
/// the sequence number does not advance.
#[test]
fn eco_update_rejects_unknown_instance_atomically() {
    let mut svc = start_service();
    let before = svc.selection_dump();
    let known = svc.design().components()[0].name.to_string();
    let moves = [
        EcoMove {
            inst: known,
            target: EcoTarget::Delta(pao_geom::Point { x: 100, y: 0 }),
        },
        EcoMove {
            inst: "ghost".to_owned(),
            target: EcoTarget::Delta(pao_geom::Point { x: 0, y: 0 }),
        },
    ];
    assert_eq!(
        svc.eco_update(&moves, None, None),
        Err(ServiceError::UnknownInstance("ghost".to_owned()))
    );
    assert_eq!(svc.eco_updates(), 0);
    assert_eq!(
        svc.selection_dump(),
        before,
        "rejected ECO must not move anything"
    );
}

/// An ECO whose re-analysis blows its deadline degrades gracefully: the
/// previous snapshot keeps serving, the signature cache is restored, and
/// a later unconstrained ECO still lands bit-identically.
#[test]
fn degraded_eco_keeps_previous_snapshot_and_cache() {
    let mut svc = start_service();
    let before = svc.selection_dump();
    let cache_before = svc.cache_stats();
    let old = Arc::clone(svc.snapshot());
    let known = svc.design().components()[0].name.to_string();
    let moves = [EcoMove {
        inst: known.clone(),
        target: EcoTarget::Delta(pao_geom::Point { x: 40, y: 0 }),
    }];

    // A zero deadline deterministically skips every phase's work.
    let err = svc
        .eco_update(&moves, Some(std::time::Duration::ZERO), None)
        .expect_err("zero-deadline ECO must degrade");
    match err {
        ServiceError::EcoDegraded {
            quarantined,
            skipped,
            stalls,
        } => {
            assert!(skipped > 0, "zero deadline must skip work");
            assert_eq!(quarantined, 0);
            assert_eq!(stalls, 0);
        }
        other => panic!("expected EcoDegraded, got {other:?}"),
    }
    assert_eq!(svc.eco_updates(), 0, "degraded ECO must not count");
    assert_eq!(svc.degraded_ecos(), 1);
    // The published snapshot differs only in its counters: same placement
    // and analysis, shared rather than copied.
    let now = svc.snapshot();
    assert!(Arc::ptr_eq(now.design(), old.design()));
    assert!(Arc::ptr_eq(now.result(), old.result()));
    assert_eq!((old.degraded_ecos(), now.degraded_ecos()), (0, 1));
    assert_eq!(now.cache_stats(), cache_before);
    assert_eq!(
        svc.selection_dump(),
        before,
        "degraded ECO must keep the previous snapshot serving"
    );
    assert_eq!(
        svc.cache_stats(),
        cache_before,
        "degraded ECO must restore the signature cache"
    );

    // The service stays healthy: the same move applies cleanly without a
    // deadline and matches a cold analysis of the moved placement.
    let reply = svc.eco_update(&moves, None, None).expect("eco applies");
    assert_eq!(reply.eco_seq, 1);
    let (tech, mut moved) = generate(&SuiteCase::small_smoke());
    moved.component_mut(CompId(0)).location += pao_geom::Point { x: 40, y: 0 };
    let cold = PinAccessOracle::new().analyze(&tech, &moved);
    assert_eq!(svc.selection_dump(), selection_dump(&moved, &cold));
}

/// Journaled ECOs replay to a bit-identical snapshot: a service that
/// records batches, "dies", and is rebuilt from the original design plus
/// the recovered journal must match the uninterrupted twin byte-for-byte.
#[test]
fn journal_replay_matches_uninterrupted_twin() {
    let dir = std::env::temp_dir().join(format!("pao_svc_journal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("eco.journal");

    let mut svc = start_service();
    svc.attach_journal(pao_core::EcoJournal::create(&path).expect("journal create"));
    let names: Vec<String> = svc
        .design()
        .components()
        .iter()
        .map(|c| c.name.to_string())
        .collect();
    let batches: Vec<Vec<EcoMove>> = vec![
        vec![EcoMove {
            inst: names[0].clone(),
            target: EcoTarget::Delta(pao_geom::Point { x: 40, y: 0 }),
        }],
        vec![
            EcoMove {
                inst: names[1].clone(),
                target: EcoTarget::Delta(pao_geom::Point { x: 0, y: -40 }),
            },
            EcoMove {
                inst: names[0].clone(),
                target: EcoTarget::Delta(pao_geom::Point { x: -40, y: 0 }),
            },
        ],
    ];
    for b in &batches {
        svc.eco_update(b, None, None)
            .expect("journaled eco applies");
    }
    let twin_dump = svc.selection_dump();
    drop(svc); // "kill" the first incarnation

    // Restart: fresh load of the original design, then journal replay.
    let (journal, entries, warn) = pao_core::EcoJournal::resume(&path).expect("journal resume");
    assert!(warn.is_none(), "{warn:?}");
    assert_eq!(entries.len(), batches.len());
    let mut restarted = start_service();
    let replayed = restarted.replay(&entries).expect("replay applies");
    assert_eq!(replayed, batches.len() as u64);
    restarted.attach_journal(journal);
    assert_eq!(
        restarted.selection_dump(),
        twin_dump,
        "replayed snapshot diverged from the uninterrupted twin"
    );
    assert_eq!(restarted.eco_updates(), batches.len() as u64);
}
