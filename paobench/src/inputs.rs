//! Seeded inputs: the LEF/DEF pair each workload analyzes, and the query
//! and ECO sequence played against it.

use pao_design::{Component, Design};
use pao_ptest::Rng;
use pao_tech::{MacroClass, PinUse, Tech};
use pao_testgen::{SuiteCase, TechFlavor};
use std::collections::HashSet;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The design shape of a workload.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// `ispd18s_test6`: ~5.4k components, thousands of unique instances.
    Test6,
    /// A tiled scale case (`scale_20k` or `scale_200k`): few unique
    /// instances, many placed components.
    Scale(&'static str),
}

/// Written LEF/DEF paths.
pub struct Files {
    pub lef: PathBuf,
    pub def: PathBuf,
}

/// SplitMix64 finalizer: spreads a small benchmark seed over the
/// generator's seed space.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the workload's design from `seed` and writes it to `dir`.
pub fn write_design(shape: Shape, seed: u64, dir: &Path) -> io::Result<Files> {
    let files = Files {
        lef: dir.join("design.lef"),
        def: dir.join("design.def"),
    };
    let mut def = BufWriter::new(std::fs::File::create(&files.def)?);
    let tech = match shape {
        Shape::Test6 => {
            let case = SuiteCase {
                name: "ispd18s_test6".into(),
                flavor: TechFlavor::N32A,
                cells: 5396,
                macros: 0,
                nets: 5385,
                io_pins: 61,
                utilization: 82,
                seed: mix(seed),
            };
            let (tech, design) = pao_testgen::generate(&case);
            pao_design::def::write_def_to(&design, &tech, &mut def)?;
            tech
        }
        Shape::Scale(name) => {
            let mut case = pao_testgen::scaled_case_by_name(name)
                .ok_or_else(|| io::Error::other(format!("unknown scale case {name}")))?;
            case.tile.seed = mix(seed);
            let tech = pao_testgen::scaled_tech(&case);
            pao_testgen::write_scaled_def(&tech, &case, &mut def)?;
            tech
        }
    };
    def.flush()?;
    std::fs::write(&files.lef, pao_tech::lef::write_lef(&tech))?;
    Ok(files)
}

/// One read-only query.
#[derive(Clone)]
pub struct Query {
    pub method: &'static str,
    pub inst: String,
    pub pin: String,
}

impl Query {
    /// The JSON-RPC request line (without the newline).
    pub fn request(&self, id: usize) -> String {
        let params = if self.method == "get_pin_access" {
            format!("{{\"inst\":\"{}\",\"pin\":\"{}\"}}", self.inst, self.pin)
        } else {
            format!("{{\"inst\":\"{}\"}}", self.inst)
        };
        format!(
            "{{\"id\":{id},\"method\":\"{}\",\"params\":{params}}}",
            self.method
        )
    }
}

/// One ECO pair: move `inst` by `dx`, later move it back.
#[derive(Clone)]
pub struct EcoPair {
    pub inst: String,
    pub dx: i64,
}

impl EcoPair {
    /// Displacement of ECO `k` of the sequence (even: move, odd: back).
    pub fn dx_of(&self, k: usize) -> i64 {
        if k.is_multiple_of(2) {
            self.dx
        } else {
            -self.dx
        }
    }

    /// The `eco_update` request line for ECO `k` of the sequence.
    pub fn request(&self, id: usize, k: usize) -> String {
        format!(
            "{{\"id\":{id},\"method\":\"eco_update\",\"params\":{{\"moves\":[{{\"inst\":\"{}\",\"dx\":{},\"dy\":0}}]}}}}",
            self.inst,
            self.dx_of(k)
        )
    }
}

/// The seeded query pool and ECO pairs of one run.
pub struct Plan {
    pub queries: Vec<Query>,
    pub pairs: Vec<EcoPair>,
}

fn movable(tech: &Tech, c: &Component) -> bool {
    c.is_placed
        && !c.is_fixed
        && c.master_in(tech)
            .is_some_and(|m| m.class == MacroClass::Core)
}

/// Draws `n_queries` queries (methods uniform, instances and signal pins
/// uniform) and `n_pairs` ECO pairs alternating between a move that
/// keeps the cell's unique-instance signature (the daemon re-runs only
/// the placement-dependent steps) and one that gives it a signature no
/// placed instance has (the cache misses and everything is re-analyzed).
pub fn plan(
    tech: &Tech,
    design: &Design,
    seed: u64,
    n_queries: usize,
    n_pairs: usize,
) -> Result<Plan, String> {
    let mut rng = Rng::new(mix(seed ^ 0x0EC0_0000));
    let comps: Vec<&Component> = design
        .components()
        .iter()
        .filter(|c| movable(tech, c))
        .collect();
    if comps.is_empty() {
        return Err("the design has no movable standard cell".into());
    }
    let mut queries = Vec::with_capacity(n_queries);
    while queries.len() < n_queries {
        let c = *rng.pick(&comps);
        let Some(master) = c.master_in(tech) else {
            continue;
        };
        let pins: Vec<&str> = master
            .pins
            .iter()
            .filter(|p| !matches!(p.use_, PinUse::Power | PinUse::Ground))
            .map(|p| &*p.name)
            .collect();
        if pins.is_empty() {
            continue;
        }
        let method = *rng.pick(&[
            "get_pin_access",
            "get_instance_patterns",
            "get_cluster_selection",
        ]);
        queries.push(Query {
            method,
            inst: c.name.to_string(),
            pin: (*rng.pick(&pins)).to_owned(),
        });
    }

    let signatures: HashSet<(String, Vec<i64>)> =
        comps.iter().map(|c| signature(design, c, 0)).collect();
    let die = design.die_area;
    let mut pairs = Vec::with_capacity(n_pairs);
    for _ in 0..1000 {
        if pairs.len() == n_pairs {
            break;
        }
        let want_new = pairs.len() % 2 == 1;
        let c = *rng.pick(&comps);
        let Some(master) = c.master_in(tech) else {
            continue;
        };
        let site = master
            .site
            .and_then(|s| tech.site_by_name(&s))
            .map_or(1, |s| s.width.max(1));
        let width = master.width;
        // Smallest whole-site displacement first. When every on-grid
        // shift of the cell lands on a signature the design already has
        // (tiled designs), a new signature needs an off-grid shift, in
        // steps of OFF_GRID_STEP.
        let sign = if rng.gen_bool(0.5) { 1 } else { -1 };
        let on_grid = (1..=64i64).map(|k| sign * k * site);
        let off_grid = (1..=64i64).map(|k| sign * k * OFF_GRID_STEP);
        let candidates = on_grid.chain(off_grid.filter(|_| want_new));
        let found = candidates.flat_map(|dx| [dx, -dx]).find(|&dx| {
            let x = c.location.x + dx;
            let inside = x >= die.xlo() && x + width <= die.xlo() + die.width();
            let moved = signature(design, c, dx);
            let kept = moved == signature(design, c, 0);
            inside
                && if want_new {
                    !signatures.contains(&moved)
                } else {
                    kept
                }
        });
        if let Some(dx) = found {
            pairs.push(EcoPair {
                inst: c.name.to_string(),
                dx,
            });
        }
    }
    if pairs.len() < n_pairs {
        return Err(format!("found only {} of {n_pairs} ECO moves", pairs.len()));
    }
    Ok(Plan { queries, pairs })
}

/// Off-grid displacement unit (database units) for new-signature moves.
const OFF_GRID_STEP: i64 = 10;

/// Unique-instance signature of `c` displaced by `dx`: master, orient
/// and track phases.
fn signature(design: &Design, c: &Component, dx: i64) -> (String, Vec<i64>) {
    let mut moved = c.clone();
    moved.location.x += dx;
    (
        format!("{}/{:?}", c.master, c.orient),
        design.track_phases(&moved),
    )
}
