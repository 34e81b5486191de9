//! Incremental re-analysis across placement changes.
//!
//! The paper motivates fast pin access analysis with placement
//! optimization loops (detailed placement, sizing, buffering), where cells
//! move repeatedly and "frequent changes in placement require a tremendous
//! amount of inter-cell pin access analysis" (Section IV-B).
//!
//! Intra-cell analysis (steps 1–2) depends only on the unique-instance
//! *signature* — master, orientation and track phases — so its results are
//! reusable across placements. [`AnalysisCache`] keys the per-signature
//! work; [`PinAccessOracle::analyze_with_cache`] skips steps 1–2 for every
//! signature seen before and re-runs only the placement-dependent cluster
//! selection and validation.

use crate::budget::{BudgetAllocator, RunBudget};
use crate::oracle::{ApTally, PaoResult, PinAccessOracle, RunLog, UniqueInstanceAccess};
use crate::stats::PaoStats;
use crate::unique::extract_unique_instances;
use pao_design::Design;
use pao_geom::{Dbu, Orient, Point};
use pao_tech::{Symbol, Tech};
use std::collections::HashMap;
use std::sync::Arc;

/// Signature key for cached intra-cell analysis.
type Signature = (Symbol, Orient, Vec<Dbu>);

/// A cached per-signature analysis entry. The cache holds entries
/// behind `Arc`, so copying a whole cache (an ECO's rollback copy) bumps
/// one refcount per entry instead of duplicating every AP and pattern.
#[derive(Debug)]
struct CacheEntry {
    /// The representative's placement location when the entry was made
    /// (access point positions are stored in that frame).
    rep_location: Point,
    /// Steps 1–2 output (pin APs, ordering, patterns, step-1 tallies) in
    /// the old frame.
    data: UniqueInstanceAccess,
}

/// A reusable cache of unique-instance analyses, keyed by signature.
///
/// ```no_run
/// # let tech: pao_tech::Tech = unimplemented!();
/// # let mut design: pao_design::Design = unimplemented!();
/// use pao_core::{incremental::AnalysisCache, PinAccessOracle};
///
/// let oracle = PinAccessOracle::new();
/// let mut cache = AnalysisCache::new();
/// let first = oracle.analyze_with_cache(&tech, &design, &mut cache);
/// // … move some cells …
/// let second = oracle.analyze_with_cache(&tech, &design, &mut cache);
/// assert!(cache.len() > 0); // intra-cell work was reused
/// # let _ = (first, second);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalysisCache {
    entries: HashMap<Signature, Arc<CacheEntry>>,
    hits: usize,
    misses: usize,
}

impl AnalysisCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Number of cached signatures.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` accumulated over all `analyze_with_cache` calls.
    #[must_use]
    pub fn stats(&self) -> (usize, usize) {
        (self.hits, self.misses)
    }

    /// Serializes the cache to the line-oriented `PAO-CACHE v4` format
    /// (version + body checksum header), so short-lived tool invocations
    /// (a placement optimizer's inner loop) can reuse intra-cell analysis
    /// across process boundaries.
    #[must_use]
    pub fn save_to_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Deterministic order for diff-friendliness.
        let mut sigs: Vec<&Signature> = self.entries.keys().collect();
        // Symbols order by interning history, not text — sort on the name.
        sigs.sort_by(|a, b| (a.0.as_str(), a.1, &a.2).cmp(&(b.0.as_str(), b.1, &b.2)));
        for sig in sigs {
            let e = &self.entries[sig];
            let phases: Vec<String> = sig.2.iter().map(i64::to_string).collect();
            let _ = writeln!(
                out,
                "ENTRY master={} orient={} phases={}",
                sig.0,
                sig.1,
                if phases.is_empty() {
                    "-".to_owned()
                } else {
                    phases.join(",")
                },
            );
            let _ = writeln!(out, "REP {} {}", e.rep_location.x, e.rep_location.y);
            let t = &e.data.tally;
            let _ = writeln!(
                out,
                "TALLY {} {} {} {}",
                t.total, t.dirty, t.without, t.off_track
            );
            for (pi, aps) in e.data.pin_aps.iter().enumerate() {
                let _ = writeln!(out, "PIN {} {}", pi, aps.len());
                for ap in aps {
                    crate::persist::write_ap(&mut out, ap);
                }
            }
            let order: Vec<String> = e.data.pin_order.iter().map(usize::to_string).collect();
            let _ = writeln!(
                out,
                "ORDER {}",
                if order.is_empty() {
                    "-".to_owned()
                } else {
                    order.join(",")
                },
            );
            for p in &e.data.patterns {
                crate::persist::write_pattern(&mut out, p);
            }
            let _ = writeln!(out, "END");
        }
        crate::persist::seal(&out)
    }

    /// Loads a cache saved by [`save_to_string`](AnalysisCache::save_to_string).
    ///
    /// # Errors
    ///
    /// Returns [`LoadCacheError`](crate::persist::LoadCacheError) on a bad
    /// header (wrong version, missing or mismatching checksum) or a
    /// malformed entry. Line numbers in errors are 1-based whole-file
    /// positions (the body starts on line 2, after the header).
    pub fn load_from_string(text: &str) -> Result<AnalysisCache, crate::persist::LoadCacheError> {
        use crate::persist::{open, parse_ap, parse_pattern, LoadCacheError};
        let body = open(text)?;
        let mut lines = body.lines().enumerate().peekable();
        let err = |m: &str, n: usize| LoadCacheError {
            message: m.to_owned(),
            line: n + 2,
        };
        let mut cache = AnalysisCache::new();
        while let Some((n, line)) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("ENTRY ")
                .ok_or_else(|| err("expected ENTRY", n))?;
            let mut master = None;
            let mut orient = None;
            let mut phases = None;
            for tok in rest.split_whitespace() {
                if let Some(v) = tok.strip_prefix("master=") {
                    master = Some(Symbol::intern(v));
                } else if let Some(v) = tok.strip_prefix("orient=") {
                    orient = Some(v.parse::<Orient>().map_err(|e| err(&e.to_string(), n))?);
                } else if let Some(v) = tok.strip_prefix("phases=") {
                    phases = Some(if v == "-" {
                        Vec::new()
                    } else {
                        v.split(',')
                            .map(str::parse)
                            .collect::<Result<Vec<i64>, _>>()
                            .map_err(|_| err("bad phase", n))?
                    });
                }
            }
            let master = master.ok_or_else(|| err("ENTRY missing master", n))?;
            let orient = orient.ok_or_else(|| err("ENTRY missing orient", n))?;
            let phases = phases.ok_or_else(|| err("ENTRY missing phases", n))?;
            let (rn, rep_line) = lines.next().ok_or_else(|| err("missing REP", n))?;
            let rep = rep_line
                .trim()
                .strip_prefix("REP ")
                .and_then(|r| {
                    let mut it = r.split_whitespace();
                    Some(Point::new(
                        it.next()?.parse().ok()?,
                        it.next()?.parse().ok()?,
                    ))
                })
                .ok_or_else(|| err("bad REP", rn))?;
            let mut pin_aps: Vec<Vec<crate::apgen::AccessPoint>> = Vec::new();
            let mut pin_order = Vec::new();
            let mut patterns = Vec::new();
            let mut tally = None;
            loop {
                let (bn, body) = lines.next().ok_or_else(|| err("unterminated ENTRY", n))?;
                let body = body.trim();
                if body == "END" {
                    break;
                } else if let Some(rest) = body.strip_prefix("PIN ") {
                    let mut it = rest.split_whitespace();
                    let pi: usize = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("bad PIN index", bn))?;
                    let count: usize = it
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err("bad PIN count", bn))?;
                    while pin_aps.len() <= pi {
                        pin_aps.push(Vec::new());
                    }
                    for _ in 0..count {
                        let (an, ap_line) =
                            lines.next().ok_or_else(|| err("missing AP line", bn))?;
                        pin_aps[pi].push(parse_ap(ap_line.trim(), an + 2)?);
                    }
                } else if let Some(rest) = body.strip_prefix("ORDER ") {
                    if rest != "-" {
                        pin_order = rest
                            .split(',')
                            .map(str::parse)
                            .collect::<Result<Vec<usize>, _>>()
                            .map_err(|_| err("bad ORDER", bn))?;
                    }
                } else if let Some(rest) = body.strip_prefix("TALLY ") {
                    let v = rest
                        .split_whitespace()
                        .map(str::parse)
                        .collect::<Result<Vec<usize>, _>>()
                        .map_err(|_| err("bad TALLY", bn))?;
                    let &[total, dirty, without, off_track] = v.as_slice() else {
                        return Err(err("TALLY expects four counts", bn));
                    };
                    tally = Some(ApTally {
                        total,
                        dirty,
                        without,
                        off_track,
                    });
                } else if body.starts_with("PATTERN") {
                    patterns.push(parse_pattern(body, bn + 2)?);
                } else {
                    return Err(err("unexpected line in ENTRY", bn));
                }
            }
            let tally = tally.ok_or_else(|| err("ENTRY missing TALLY", n))?;
            let sig = (master, orient, phases.clone());
            let data = UniqueInstanceAccess {
                info: crate::unique::UniqueInstance {
                    id: crate::unique::UniqueInstanceId(cache.entries.len() as u32),
                    master,
                    orient,
                    phases,
                    rep: pao_design::CompId(0),
                    members: Vec::new(),
                },
                pin_aps,
                pin_order,
                patterns,
                tally,
            };
            cache.entries.insert(
                sig,
                Arc::new(CacheEntry {
                    rep_location: rep,
                    data,
                }),
            );
        }
        Ok(cache)
    }

    /// Loads a persisted cache, degrading on failure instead of erroring:
    /// corrupt, truncated or version-mismatched input yields an **empty**
    /// cache (so the caller transparently rebuilds via the full-analysis
    /// path) plus the rejection reason. Every rejection bumps the
    /// `cache.rejected` counter.
    #[must_use]
    pub fn load_or_rebuild(text: &str) -> (AnalysisCache, Option<crate::error::PaoError>) {
        match AnalysisCache::load_from_string(text) {
            Ok(cache) => (cache, None),
            Err(e) => {
                pao_obs::counter_add("cache.rejected", 1);
                (AnalysisCache::new(), Some(crate::error::PaoError::from(e)))
            }
        }
    }
}

impl PinAccessOracle {
    /// Like [`analyze`](PinAccessOracle::analyze), but reuses (and fills)
    /// `cache` for the placement-independent steps 1–2. On a placement
    /// where every signature was seen before, only cluster selection,
    /// repair and validation run — the workload of a placement-optimization
    /// inner loop.
    #[must_use]
    pub fn analyze_with_cache(
        &self,
        tech: &Tech,
        design: &Design,
        cache: &mut AnalysisCache,
    ) -> PaoResult {
        self.analyze_with_cache_budget(tech, design, cache, RunBudget::unlimited())
    }

    /// [`analyze_with_cache`](PinAccessOracle::analyze_with_cache) under a
    /// [`RunBudget`]. The full-analysis path (new signatures present)
    /// forwards the whole budget — per-phase allocation, watchdog and
    /// checkpointing included. The cache fast path skips steps 1–2 and
    /// runs the oracle's shared select/repair/audit tail under the
    /// *overall* deadline token instead of per-phase slices (there is no
    /// history for the shrunken pipeline, and the tail is already the
    /// cheap part).
    #[must_use]
    pub fn analyze_with_cache_budget(
        &self,
        tech: &Tech,
        design: &Design,
        cache: &mut AnalysisCache,
        budget: RunBudget<'_>,
    ) -> PaoResult {
        // Which signatures exist in this placement, and which are cached?
        // Resolving every entry up front makes the all-cached check and the
        // fast path share one lookup — there is no later re-lookup that
        // could miss.
        let infos = extract_unique_instances(tech, design);
        let entries: Option<Vec<Arc<CacheEntry>>> = infos
            .iter()
            .map(|info| {
                cache
                    .entries
                    .get(&(info.master, info.orient, info.phases.clone()))
                    .cloned()
            })
            .collect();
        let Some(entries) = entries else {
            // At least one new signature: run the full analysis (simple and
            // correct; a finer-grained variant could analyze only the new
            // signatures) and refresh the cache from it.
            let result = self.analyze_with_budget(tech, design, budget);
            for u in &result.unique {
                let sig = (u.info.master, u.info.orient, u.info.phases.clone());
                cache.misses += 1;
                pao_obs::counter_add("cache.misses", 1);
                cache.entries.insert(
                    sig,
                    Arc::new(CacheEntry {
                        rep_location: design.component(u.info.rep).location,
                        data: u.clone(),
                    }),
                );
            }
            return result;
        };
        // Fast path: rebuild per-unique data from the cache, translated
        // into each new representative's frame.
        let RunBudget {
            deadline,
            fractions,
            watchdog,
            checkpoint: _,
        } = budget;
        let token = BudgetAllocator::new(deadline, fractions).overall_token();
        let log = RunLog::start(deadline);
        let mut comp_uniq = vec![None; design.components().len()];
        let mut unique = Vec::with_capacity(infos.len());
        for (info, entry) in infos.into_iter().zip(entries) {
            for &m in &info.members {
                comp_uniq[m.index()] = Some(info.id);
            }
            cache.hits += 1;
            pao_obs::counter_add("cache.hits", 1);
            let delta = design.component(info.rep).location - entry.rep_location;
            let mut data = entry.data.clone();
            data.info = info;
            for aps in &mut data.pin_aps {
                for ap in aps {
                    ap.pos += delta;
                }
            }
            unique.push(data);
        }
        let result = PaoResult {
            unique,
            comp_uniq,
            selection: Vec::new(),
            overrides: HashMap::new(),
            stats: PaoStats::default(),
        };
        self.finish(tech, design, result, log, &|_| token.clone(), watchdog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_design::CompId;
    use pao_testgen::{generate, SuiteCase};

    #[test]
    fn cache_fast_path_matches_full_analysis() {
        let (tech, mut design) = generate(&SuiteCase::small_smoke());
        let oracle = PinAccessOracle::new();
        let mut cache = AnalysisCache::new();
        let first = oracle.analyze_with_cache(&tech, &design, &mut cache);
        assert!(!cache.is_empty());
        let (h0, m0) = cache.stats();
        assert_eq!(h0, 0);
        assert!(m0 > 0);

        // Swap two same-master instances' locations (signatures preserved
        // when they share a signature; shifting by whole pitch periods
        // also preserves them). Here: re-analyze the identical placement —
        // the pure fast path.
        let second = oracle.analyze_with_cache(&tech, &design, &mut cache);
        let (h1, _) = cache.stats();
        assert!(h1 > 0, "fast path must hit the cache");
        assert!(
            first.stats.counters_eq(&second.stats),
            "fast path counters diverged:\n{}\nvs\n{}",
            first.stats,
            second.stats
        );
        for ci in 0..design.components().len() {
            let comp = CompId(ci as u32);
            let a = first.access_point(&design, comp, 0).map(|a| a.pos);
            let b = second.access_point(&design, comp, 0).map(|a| a.pos);
            assert_eq!(a, b, "{comp}");
        }

        // A genuine move: shift one instance by a full signature period in
        // x (site width × pitch lcm keeps phases — use zero shift in y).
        // Moving by the design's full row keeps the same signature set.
        let c0 = design.component(CompId(0)).clone();
        design.component_mut(CompId(0)).location = c0.location;
        let third = oracle.analyze_with_cache(&tech, &design, &mut cache);
        assert_eq!(third.stats.failed_pins, second.stats.failed_pins);
    }

    #[test]
    fn new_signature_falls_back_to_full_analysis() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let oracle = PinAccessOracle::new();
        let mut cache = AnalysisCache::new();
        let _ = oracle.analyze_with_cache(&tech, &design, &mut cache);
        let before = cache.len();

        // A different seed produces placements with (likely) new phases.
        let (_, design2) = generate(&SuiteCase {
            seed: 777,
            ..SuiteCase::small_smoke()
        });
        let r = oracle.analyze_with_cache(&tech, &design2, &mut cache);
        assert_eq!(r.stats.failed_pins, 0);
        assert!(cache.len() >= before);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use pao_testgen::{generate, SuiteCase};

    #[test]
    fn cache_save_load_roundtrip_preserves_analysis() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let oracle = PinAccessOracle::new();
        let mut cache = AnalysisCache::new();
        let first = oracle.analyze_with_cache(&tech, &design, &mut cache);

        let text = cache.save_to_string();
        assert!(text.starts_with("PAO-CACHE v4 fnv1a="));
        let mut loaded = AnalysisCache::load_from_string(&text).expect("loads");
        assert_eq!(loaded.len(), cache.len());

        // A fresh "process" using the loaded cache hits on everything and
        // produces the same result.
        let again = oracle.analyze_with_cache(&tech, &design, &mut loaded);
        let (hits, misses) = loaded.stats();
        assert!(hits > 0);
        assert_eq!(misses, 0, "loaded cache must cover all signatures");
        assert_eq!(first.stats.total_aps, again.stats.total_aps);
        assert_eq!(first.stats.failed_pins, again.stats.failed_pins);
        for ci in 0..design.components().len() {
            let comp = pao_design::CompId(ci as u32);
            assert_eq!(
                first.access_point(&design, comp, 0).map(|a| a.pos),
                again.access_point(&design, comp, 0).map(|a| a.pos),
            );
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(AnalysisCache::load_from_string("").is_err());
        assert!(AnalysisCache::load_from_string("NOT A CACHE").is_err());
        // Legacy (un-checksummed) caches are a version mismatch: rebuilt,
        // not parsed on trust.
        assert!(
            AnalysisCache::load_from_string("PAO-CACHE v1\nENTRY master=X orient=N phases=-\n")
                .is_err(),
            "v1 cache must be rejected"
        );
        let sealed = crate::persist::seal("ENTRY master=X orient=N phases=-\n");
        assert!(
            AnalysisCache::load_from_string(&sealed).is_err(),
            "unterminated entry"
        );
    }

    #[test]
    fn load_or_rebuild_degrades_to_empty_cache() {
        let (cache, err) = AnalysisCache::load_or_rebuild("PAO-CACHE v1\ngarbage\n");
        assert!(cache.is_empty());
        let err = err.expect("rejection reason");
        assert!(matches!(err, crate::error::PaoError::Cache { .. }), "{err}");
    }

    #[test]
    fn byte_mutated_cache_never_panics() {
        let (tech, design) = generate(&SuiteCase::small_smoke());
        let oracle = PinAccessOracle::new();
        let mut cache = AnalysisCache::new();
        let _ = oracle.analyze_with_cache(&tech, &design, &mut cache);
        let text = cache.save_to_string();
        assert!(AnalysisCache::load_from_string(&text).is_ok());
        pao_ptest::check("persist.byte_mutation", 200, |rng| {
            let mut bytes = text.clone().into_bytes();
            // 1–4 random byte smashes (overwrites, not just bit flips), or
            // a truncation — the half-written-file case.
            if rng.gen_bool(0.25) {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            } else {
                for _ in 0..rng.gen_range(1..=4usize) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = rng.gen_range(0..=255u64) as u8;
                }
            }
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            // Must never panic; any outcome other than a clean parse or a
            // typed rejection is a bug. The checksum makes silent
            // acceptance of a *changed* body effectively impossible.
            let (loaded, err) = AnalysisCache::load_or_rebuild(&mutated);
            if mutated != text {
                assert!(err.is_some(), "mutated cache accepted: {mutated:?}");
                assert!(loaded.is_empty());
            }
        });
    }
}
