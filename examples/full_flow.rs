//! The full flow on a mid-size testcase: LEF/DEF round-trip, PAAF
//! analysis, baseline comparison, detailed routing and DRC scoring —
//! everything the paper's evaluation exercises, end to end.
//!
//! ```text
//! cargo run --release --example full_flow
//! ```

use paaf::pao::oracle::count_failed_pins;
use paaf::pao::{CancelToken, PhaseBudget, PinAccessOracle};
use paaf::router::route::{RouteConfig, Router};
use paaf::router::{baseline_pin_access, score, BaselineConfig};
use paaf::testgen::{generate, ispd18s_suite, SuiteCase};

fn main() {
    // A reduced ispd18s_test1 so the example finishes in seconds.
    let case = SuiteCase {
        cells: 300,
        nets: 260,
        ..ispd18s_suite()[0].clone()
    };
    println!("== generate {} ==", case.name);
    let (tech, design) = generate(&case);

    // The generator's output round-trips through the LEF/DEF text formats.
    let lef = paaf::tech::lef::write_lef(&tech);
    let def = paaf::design::def::write_def(&design, &tech);
    let tech2 = paaf::tech::lef::parse_lef(&lef).expect("LEF round-trip");
    let design2 = paaf::design::def::parse_def(&def, &tech2).expect("DEF round-trip");
    println!(
        "LEF {} KiB / DEF {} KiB round-trip ok ({} components)",
        lef.len() / 1024,
        def.len() / 1024,
        design2.components().len()
    );

    // PAAF analysis.
    println!("\n== PAAF analysis ==");
    let pao = PinAccessOracle::new().analyze(&tech2, &design2);
    println!("{}", pao.stats);

    // Baseline comparison (Table II/III shape).
    println!("\n== TrRte-like baseline ==");
    let base = baseline_pin_access(&tech2, &design2, &BaselineConfig::default());
    let never = CancelToken::never();
    let ((total, base_failed), ..) = count_failed_pins(
        &tech2,
        &design2,
        |c, p| base.access_point(&design2, c, p),
        1,
        PhaseBudget::new(&never, None),
    );
    println!(
        "baseline: {} APs, {}/{} failed pins  |  PAAF: {} APs, {}/{} failed pins",
        base.total_aps, base_failed, total, pao.stats.total_aps, pao.stats.failed_pins, total
    );

    // Detailed routing with both access arms (Experiment 3 shape).
    println!("\n== detailed routing ==");
    let router = Router::new(&tech2, &design2, RouteConfig::default());
    let routed = router.route_with_pao(&pao);
    let drcs_pao = score::count_drcs(&tech2, &design2, &routed);
    let naive = router.route_with_accessor(|_, _| None);
    let drcs_naive = score::count_drcs(&tech2, &design2, &naive);
    println!(
        "PAAF access : {} nets routed, {} vias, wirelength {}, DRCs {}",
        routed.routed_nets, routed.via_count, routed.wirelength, drcs_pao
    );
    println!(
        "naive access: {} nets routed, {} vias, wirelength {}, DRCs {}",
        naive.routed_nets, naive.via_count, naive.wirelength, drcs_naive
    );
    println!("\nDRC breakdown (naive arm):");
    for (rule, count) in score::drc_breakdown(&tech2, &design2, &naive) {
        println!("  {rule:<20} {count}");
    }
    assert!(drcs_pao < drcs_naive, "PAAF must win");
    println!(
        "\nPAAF reduces routed DRCs by {}x",
        drcs_naive.max(1) / drcs_pao.max(1)
    );
}
