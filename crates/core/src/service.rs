//! Resident oracle service: the query surface behind `pao serve`.
//!
//! The paper's oracle exists to be *queried* — the detailed router asks
//! for pin access on demand while placement keeps changing — so a
//! production deployment keeps one warm [`OracleService`] resident
//! instead of re-running the pipeline per invocation.
//!
//! The service is split in two:
//!
//! - **[`ServiceSnapshot`]** is immutable: `Arc<Tech>`, `Arc<Design>`,
//!   `Arc<PaoResult>`, the reject map, and the counters `stats` reports
//!   (ECO sequence, signature-cache hits/misses, degraded ECOs, journal
//!   entries, phase fractions) as they stood when it was published. All
//!   four query bodies — `pin_access`, `instance_patterns`,
//!   `cluster_selection`, `selection_dump` — live here and only read, so
//!   any number of threads can answer from one snapshot with
//!   byte-identical results.
//! - **The writer state** — the signature [`AnalysisCache`], the ECO
//!   journal, the config and the shared phase fractions — belongs to
//!   [`OracleService`] and is touched only by
//!   [`eco_update`](OracleService::eco_update), [`replay`](OracleService::replay)
//!   and [`attach_journal`](OracleService::attach_journal).
//!
//! An ECO clones the design, moves it, re-analyzes it and *publishes* a
//! new snapshot; it never mutates one. A reader that cloned the
//! `Arc<ServiceSnapshot>` before the publish keeps answering for the old
//! placement, a reader that clones it after sees the new one. `pao serve`
//! builds on exactly this: its readers clone the published pointer and
//! answer without waiting, while ECOs serialize on the writer alone
//! (DESIGN.md §17).
//!
//! Re-analysis after a move goes through the [`incremental`](crate::incremental)
//! dirty-cluster path: intra-cell work (steps 1–2) is keyed by signature
//! in the service's [`AnalysisCache`], so a move that preserves signatures
//! re-runs only cluster selection, repair and audit. Per-request deadlines
//! reuse [`RunBudget`]/[`BudgetAllocator`](crate::budget::BudgetAllocator),
//! with phase fractions drawn from an immutable [`SharedFractions`]
//! snapshot (one request's history roll-forward never mutates a
//! concurrent request's split).

use crate::budget::{PhaseFractions, RunBudget, SharedFractions, Watchdog};
use crate::incremental::AnalysisCache;
use crate::oracle::{PaoConfig, PaoResult, PinAccessOracle};
use crate::persist::{EcoJournal, JournalEntry};
use pao_design::{CompId, Design};
use pao_geom::Point;
use pao_tech::Tech;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A typed failure answering one query. These are *request* errors — the
/// service itself stays healthy and keeps serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// No component with this instance name exists in the design.
    UnknownInstance(String),
    /// The instance exists but its master is not in the LEF.
    UnknownMaster(String),
    /// The master has no pin with this name.
    UnknownPin {
        /// The master searched.
        master: String,
        /// The pin name that failed to resolve.
        pin: String,
    },
    /// The instance was not analyzed (unplaced or unknown master).
    NotAnalyzed(String),
    /// An `eco_update` re-analysis degraded — it blew its deadline,
    /// tripped the watchdog, or quarantined faulted work — so the update
    /// was **not** applied: the previous snapshot keeps serving and the
    /// signature cache was restored. The journaled entry is revoked.
    EcoDegraded {
        /// Work items quarantined by faults during the re-analysis.
        quarantined: usize,
        /// Work items skipped by the expired deadline budget.
        skipped: usize,
        /// Watchdog stalls that fired.
        stalls: usize,
    },
    /// The ECO journal could not durably record the update, so the
    /// update was rejected before any analysis ran (no durability, no
    /// apply).
    Journal(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownInstance(inst) => write!(f, "unknown instance `{inst}`"),
            ServiceError::UnknownMaster(inst) => {
                write!(f, "instance `{inst}` has an unknown master")
            }
            ServiceError::UnknownPin { master, pin } => {
                write!(f, "master `{master}` has no pin `{pin}`")
            }
            ServiceError::NotAnalyzed(inst) => {
                write!(f, "instance `{inst}` was not analyzed")
            }
            ServiceError::EcoDegraded {
                quarantined,
                skipped,
                stalls,
            } => {
                write!(
                    f,
                    "eco re-analysis degraded (quarantined {quarantined}, skipped {skipped}, \
                     stalls {stalls}); previous snapshot kept"
                )
            }
            ServiceError::Journal(msg) => write!(f, "eco journal: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One reject-rule tally for a pin: how many AP candidates a DRC rule
/// (with sub-check) eliminated during generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RejectCount {
    /// Presentation label, e.g. `Spacing (prl)` or `no via candidate`.
    pub rule: String,
    /// Candidates rejected with this attribution.
    pub count: u64,
}

/// Answer to `get_pin_access`: the selected AP, every surviving
/// candidate, and (when the service collected the decision ledger at
/// load) the reject-rule histogram from candidate generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinAccessReply {
    /// Instance name as queried.
    pub inst: String,
    /// Pin name as queried.
    pub pin: String,
    /// The selected access point in the instance's die frame (`None`
    /// when the pin failed analysis).
    pub selected: Option<crate::apgen::AccessPoint>,
    /// `true` when `selected` comes from a post-selection repair
    /// override rather than the chosen pattern.
    pub from_override: bool,
    /// All surviving access points (die frame), selected one included.
    pub candidates: Vec<crate::apgen::AccessPoint>,
    /// Reject-rule tallies from apgen (empty without ledger collection,
    /// and for checkpoint-restored instances whose apgen was skipped).
    pub rejects: Vec<RejectCount>,
}

/// Answer to `get_instance_patterns`: the unique instance's generated
/// access patterns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstancePatternsReply {
    /// Instance name as queried.
    pub inst: String,
    /// The instance's cell master.
    pub master: String,
    /// Index of the unique instance answering for this component.
    pub unique_index: usize,
    /// How many placed components share this unique instance.
    pub members: usize,
    /// The analyzed pin ordering (indices into the master pin list).
    pub pin_order: Vec<usize>,
    /// Generated patterns over `pin_order` (cost-ascending, as analyzed).
    pub patterns: Vec<crate::pattern::AccessPattern>,
}

/// Answer to `get_cluster_selection`: which pattern cluster selection
/// chose for this component, plus any per-pin repair overrides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSelectionReply {
    /// Instance name as queried.
    pub inst: String,
    /// Selected pattern index (`None` when no pattern exists).
    pub pattern: Option<usize>,
    /// Post-selection repair overrides for this component's pins, in pin
    /// order: `(pin index, die-frame access point)`.
    pub overrides: Vec<(usize, crate::apgen::AccessPoint)>,
}

/// One component move in an [`eco_update`](OracleService::eco_update).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcoMove {
    /// Instance to move.
    pub inst: String,
    /// Where it goes.
    pub target: EcoTarget,
}

/// Where an [`EcoMove`] places its instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcoTarget {
    /// Absolute die-frame location.
    Abs(Point),
    /// Offset from the current location.
    Delta(Point),
}

/// What an [`eco_update`](OracleService::eco_update) did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcoReply {
    /// Components moved.
    pub moved: usize,
    /// Signature cache hits during the re-analysis (fast-path reuse).
    pub cache_hits: usize,
    /// Signature cache misses (each one forced intra-cell re-analysis).
    pub cache_misses: usize,
    /// `true` when a new signature forced the full five-phase pipeline;
    /// `false` means only select/repair/audit re-ran (the dirty-cluster
    /// incremental path).
    pub full_reanalysis: bool,
    /// Failed pins after the update.
    pub failed_pins: usize,
    /// Monotone update sequence number (1 for the first ECO).
    pub eco_seq: u64,
}

/// Reject histogram keyed by `(unique instance, pin)`, built from one
/// ledger-enabled analysis at service start.
type RejectMap = HashMap<(u32, usize), Vec<RejectCount>>;

/// One immutable, published state of the service: the placement, its
/// analysis and the counters `stats` reports, frozen together. Every
/// query is answered from exactly one snapshot, so a reader holding an
/// `Arc<ServiceSnapshot>` sees one consistent placement no matter how
/// many ECOs are published meanwhile. Cloning one costs a few refcount
/// bumps.
#[derive(Debug, Clone)]
pub struct ServiceSnapshot {
    tech: Arc<Tech>,
    design: Arc<Design>,
    result: Arc<PaoResult>,
    rejects: Arc<RejectMap>,
    eco_updates: u64,
    cache_hits: usize,
    cache_misses: usize,
    degraded_ecos: u64,
    journal_entries: u64,
    fractions: PhaseFractions,
}

/// A resident, query-answering pin access oracle (see the module docs):
/// the latest published [`ServiceSnapshot`] plus the writer state that
/// only ECOs touch.
#[derive(Debug)]
pub struct OracleService {
    snapshot: Arc<ServiceSnapshot>,
    cache: AnalysisCache,
    config: PaoConfig,
    fractions: SharedFractions,
    collect_rejects: bool,
    journal: Option<EcoJournal>,
}

/// Presentation label for a ledger reject attribution (mirrors
/// `pao explain`): rule + sub-check, or the no-candidate sentinel.
fn reject_label(rule: u8, subcheck: u8) -> String {
    use pao_drc::{RuleKind, SubCheck};
    match (RuleKind::from_code(rule), SubCheck::from_code(subcheck)) {
        (Some(r), Some(s)) => format!("{r} ({s})"),
        (Some(r), None) => r.to_string(),
        _ => "no via candidate".to_owned(),
    }
}

/// Folds a drained ledger dump into the per-pin reject histogram, in
/// stable `(rule, subcheck)` code order.
fn build_rejects(dump: &pao_obs::LedgerDump) -> RejectMap {
    let mut tallies: HashMap<(u32, usize), BTreeMap<(u8, u8), u64>> = HashMap::new();
    for r in &dump.records {
        if r.decode_event() == Some(pao_obs::LedgerEvent::ApReject) {
            let key = ((r.entity >> 16) as u32, (r.entity & 0xFFFF) as usize);
            *tallies
                .entry(key)
                .or_default()
                .entry((r.rule, r.subcheck))
                .or_default() += 1;
        }
    }
    tallies
        .into_iter()
        .map(|(key, by_rule)| {
            let counts = by_rule
                .into_iter()
                .map(|((rule, sub), count)| RejectCount {
                    rule: reject_label(rule, sub),
                    count,
                })
                .collect();
            (key, counts)
        })
        .collect()
}

/// Deterministic text dump of a result's cluster-selection outcome: one
/// line per component (selected pattern index), repair overrides in
/// component order, and the failed-pin count. Byte-identical across
/// thread counts by the selection identity contract — `pao analyze
/// --dump-selection` writes this same text, and the `scripts/verify.sh`
/// serve gate diffs a daemon's copy against it.
#[must_use]
pub fn selection_dump(design: &Design, result: &PaoResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (ci, comp) in design.components().iter().enumerate() {
        match result.selection.get(ci).copied().flatten() {
            Some(p) => {
                let _ = writeln!(out, "comp {ci} {} pattern {p}", comp.name);
            }
            None => {
                let _ = writeln!(out, "comp {ci} {} pattern -", comp.name);
            }
        }
    }
    let mut overrides: Vec<_> = result.overrides.iter().collect();
    overrides.sort_by_key(|(k, _)| (k.0.index(), k.1));
    for (k, ap) in overrides {
        let _ = writeln!(
            out,
            "override {} {} layer {} at {},{}",
            k.0.index(),
            k.1,
            ap.layer.index(),
            ap.pos.x,
            ap.pos.y
        );
    }
    let _ = writeln!(out, "failed {}", result.stats.failed_pins);
    out
}

impl ServiceSnapshot {
    /// The loaded technology.
    #[must_use]
    pub fn tech(&self) -> &Arc<Tech> {
        &self.tech
    }

    /// The placement this snapshot answers for.
    #[must_use]
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// The analysis of [`design`](ServiceSnapshot::design).
    #[must_use]
    pub fn result(&self) -> &Arc<PaoResult> {
        &self.result
    }

    /// ECO updates applied before this snapshot was published (its ECO
    /// sequence number; 0 for the load).
    #[must_use]
    pub fn eco_updates(&self) -> u64 {
        self.eco_updates
    }

    /// `(hits, misses)` of the signature cache when this snapshot was
    /// published.
    #[must_use]
    pub fn cache_stats(&self) -> (usize, usize) {
        (self.cache_hits, self.cache_misses)
    }

    /// ECO updates that degraded (rejected, previous placement kept)
    /// before this snapshot was published.
    #[must_use]
    pub fn degraded_ecos(&self) -> u64 {
        self.degraded_ecos
    }

    /// Committed journal entries when this snapshot was published (0
    /// without a journal).
    #[must_use]
    pub fn journal_entries(&self) -> u64 {
        self.journal_entries
    }

    /// The phase-fraction history when this snapshot was published.
    #[must_use]
    pub fn fractions(&self) -> PhaseFractions {
        self.fractions
    }

    /// Resolves an instance name to its component id.
    fn resolve(&self, inst: &str) -> Result<CompId, ServiceError> {
        self.design
            .component_by_name(inst)
            .ok_or_else(|| ServiceError::UnknownInstance(inst.to_owned()))
    }

    /// The unique-instance index answering for `comp`.
    fn unique_index(&self, comp: CompId, inst: &str) -> Result<usize, ServiceError> {
        self.result
            .comp_uniq
            .get(comp.index())
            .copied()
            .flatten()
            .map(|ui| ui.index())
            .ok_or_else(|| ServiceError::NotAnalyzed(inst.to_owned()))
    }

    /// Answers `get_pin_access` for `inst`/`pin`.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance, master or pin cannot be
    /// resolved, or the instance was not analyzed.
    pub fn pin_access(&self, inst: &str, pin: &str) -> Result<PinAccessReply, ServiceError> {
        let comp = self.resolve(inst)?;
        let master = self
            .design
            .component(comp)
            .master_in(&self.tech)
            .ok_or_else(|| ServiceError::UnknownMaster(inst.to_owned()))?;
        let pin_idx = master
            .pins
            .iter()
            .position(|p| p.name == pin)
            .ok_or_else(|| ServiceError::UnknownPin {
                master: master.name.to_string(),
                pin: pin.to_owned(),
            })?;
        let ui = self.unique_index(comp, inst)?;
        let selected = self.result.access_point(&self.design, comp, pin_idx);
        let from_override = self.result.overrides.contains_key(&(comp, pin_idx));
        let candidates = self.result.all_access_points(&self.design, comp, pin_idx);
        let rejects = self
            .rejects
            .get(&(ui as u32, pin_idx))
            .cloned()
            .unwrap_or_default();
        Ok(PinAccessReply {
            inst: inst.to_owned(),
            pin: pin.to_owned(),
            selected,
            from_override,
            candidates,
            rejects,
        })
    }

    /// Answers `get_instance_patterns` for `inst`.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance cannot be resolved or was not
    /// analyzed.
    pub fn instance_patterns(&self, inst: &str) -> Result<InstancePatternsReply, ServiceError> {
        let comp = self.resolve(inst)?;
        let ui = self.unique_index(comp, inst)?;
        let u = &self.result.unique[ui];
        Ok(InstancePatternsReply {
            inst: inst.to_owned(),
            master: u.info.master.to_string(),
            unique_index: ui,
            members: u.info.members.len(),
            pin_order: u.pin_order.clone(),
            patterns: u.patterns.clone(),
        })
    }

    /// Answers `get_cluster_selection` for `inst`.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance cannot be resolved.
    pub fn cluster_selection(&self, inst: &str) -> Result<ClusterSelectionReply, ServiceError> {
        let comp = self.resolve(inst)?;
        let pattern = self.result.selection.get(comp.index()).copied().flatten();
        let mut overrides: Vec<(usize, crate::apgen::AccessPoint)> = self
            .result
            .overrides
            .iter()
            .filter(|((c, _), _)| *c == comp)
            .map(|((_, pin), ap)| (*pin, ap.clone()))
            .collect();
        overrides.sort_by_key(|(pin, _)| *pin);
        Ok(ClusterSelectionReply {
            inst: inst.to_owned(),
            pattern,
            overrides,
        })
    }

    /// The deterministic selection dump of this snapshot (same bytes as
    /// `pao analyze --dump-selection` on the same placement).
    #[must_use]
    pub fn selection_dump(&self) -> String {
        selection_dump(&self.design, &self.result)
    }
}

impl OracleService {
    /// Loads the service: analyzes `design` once under `budget` (pass a
    /// checkpoint store inside the budget for the warm-start path) and
    /// publishes the result as the first snapshot. With `collect_rejects`
    /// the load runs with the decision ledger enabled so `get_pin_access`
    /// can report per-pin reject reasons; the ledger switch is
    /// process-global, so leave it off when other analyses share the
    /// process.
    #[must_use]
    pub fn start(
        tech: Tech,
        design: Design,
        config: PaoConfig,
        budget: RunBudget<'_>,
        collect_rejects: bool,
    ) -> OracleService {
        let mut cache = AnalysisCache::new();
        if collect_rejects {
            pao_obs::enable_ledger();
        }
        let oracle = PinAccessOracle::with_config(config.clone());
        let result = oracle.analyze_with_cache_budget(&tech, &design, &mut cache, budget);
        let rejects = if collect_rejects {
            pao_obs::disable_ledger();
            build_rejects(&pao_obs::take_ledger())
        } else {
            RejectMap::new()
        };
        let fractions = SharedFractions::new(PhaseFractions::from_stats(&result.stats));
        let (cache_hits, cache_misses) = cache.stats();
        OracleService {
            snapshot: Arc::new(ServiceSnapshot {
                tech: Arc::new(tech),
                design: Arc::new(design),
                result: Arc::new(result),
                rejects: Arc::new(rejects),
                eco_updates: 0,
                cache_hits,
                cache_misses,
                degraded_ecos: 0,
                journal_entries: 0,
                fractions: fractions.snapshot(),
            }),
            cache,
            config,
            fractions,
            collect_rejects,
            journal: None,
        }
    }

    /// The latest published snapshot. A caller that clones the `Arc` can
    /// keep answering queries from it while later ECOs publish newer
    /// ones — `pao serve` hands exactly this pointer to its readers.
    #[must_use]
    pub fn snapshot(&self) -> &Arc<ServiceSnapshot> {
        &self.snapshot
    }

    /// Publishes a new snapshot: `edit` adjusts a copy of the current
    /// one, whose writer-side counters are then refreshed.
    fn publish(&mut self, edit: impl FnOnce(&mut ServiceSnapshot)) {
        let mut next = (*self.snapshot).clone();
        edit(&mut next);
        (next.cache_hits, next.cache_misses) = self.cache.stats();
        next.journal_entries = self.journal.as_ref().map_or(0, EcoJournal::entries);
        next.fractions = self.fractions.snapshot();
        self.snapshot = Arc::new(next);
    }

    /// Attaches a write-ahead [`EcoJournal`]: every subsequently accepted
    /// `eco_update` batch is durably recorded *before* its re-analysis
    /// runs, so a killed process can [`replay`](OracleService::replay)
    /// on restart and land bit-identical to a never-killed twin.
    pub fn attach_journal(&mut self, journal: EcoJournal) {
        self.journal = Some(journal);
        self.publish(|_| {});
    }

    /// The attached journal, if any.
    #[must_use]
    pub fn journal(&self) -> Option<&EcoJournal> {
        self.journal.as_ref()
    }

    /// Re-applies recovered journal entries in order through the normal
    /// ECO path — without deadline, watchdog or re-journaling, because
    /// every entry was already accepted and durably recorded by a prior
    /// incarnation. Deterministic analysis makes the resulting snapshot
    /// bit-identical to one that applied the same batches live. Returns
    /// the number of entries replayed.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when an entry no longer validates (e.g. the
    /// journal belongs to a different design); replay stops there.
    pub fn replay(&mut self, entries: &[JournalEntry]) -> Result<u64, ServiceError> {
        let journal = self.journal.take();
        let mut applied = 0;
        let mut first_err = None;
        for e in entries {
            match self.eco_update(&e.moves, None, None) {
                Ok(_) => applied += 1,
                Err(err) => {
                    first_err = Some(err);
                    break;
                }
            }
        }
        self.journal = journal;
        self.publish(|_| {});
        match first_err {
            Some(err) => Err(err),
            None => Ok(applied),
        }
    }

    /// ECO updates that degraded (rejected, snapshot kept) since load.
    #[must_use]
    pub fn degraded_ecos(&self) -> u64 {
        self.snapshot.degraded_ecos
    }

    /// The loaded technology.
    #[must_use]
    pub fn tech(&self) -> &Arc<Tech> {
        &self.snapshot.tech
    }

    /// The current design snapshot (replaced copy-on-write by ECOs).
    #[must_use]
    pub fn design(&self) -> &Arc<Design> {
        &self.snapshot.design
    }

    /// The current analysis snapshot.
    #[must_use]
    pub fn result(&self) -> &Arc<PaoResult> {
        &self.snapshot.result
    }

    /// The shared phase-fraction history feeding per-request budgets.
    #[must_use]
    pub fn fractions(&self) -> &SharedFractions {
        &self.fractions
    }

    /// ECO updates applied since load.
    #[must_use]
    pub fn eco_updates(&self) -> u64 {
        self.snapshot.eco_updates
    }

    /// `(hits, misses)` of the resident signature cache.
    #[must_use]
    pub fn cache_stats(&self) -> (usize, usize) {
        self.snapshot.cache_stats()
    }

    /// Answers `get_pin_access` from the current snapshot (see
    /// [`ServiceSnapshot::pin_access`]).
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance, master or pin cannot be
    /// resolved, or the instance was not analyzed.
    pub fn pin_access(&self, inst: &str, pin: &str) -> Result<PinAccessReply, ServiceError> {
        self.snapshot.pin_access(inst, pin)
    }

    /// Answers `get_instance_patterns` from the current snapshot.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance cannot be resolved or was not
    /// analyzed.
    pub fn instance_patterns(&self, inst: &str) -> Result<InstancePatternsReply, ServiceError> {
        self.snapshot.instance_patterns(inst)
    }

    /// Answers `get_cluster_selection` from the current snapshot.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the instance cannot be resolved.
    pub fn cluster_selection(&self, inst: &str) -> Result<ClusterSelectionReply, ServiceError> {
        self.snapshot.cluster_selection(inst)
    }

    /// The deterministic selection dump of the current snapshot.
    #[must_use]
    pub fn selection_dump(&self) -> String {
        self.snapshot.selection_dump()
    }

    /// Applies component moves copy-on-write and re-analyzes through the
    /// incremental dirty-cluster path: the design is cloned, moved, and
    /// re-analyzed with the resident signature cache — signature-
    /// preserving moves skip steps 1–2 entirely — then a new snapshot is
    /// published. Readers holding an older snapshot keep answering for
    /// the placement they started with; nothing they hold is mutated.
    ///
    /// The re-analysis runs under `deadline` (if any) with a
    /// [`PhaseFractions`] snapshot taken from the shared history at call
    /// time; a full re-analysis publishes its measured fractions back.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownInstance`] when any move names a missing
    /// instance — the update is rejected whole, nothing moves.
    /// [`ServiceError::Journal`] when the attached journal cannot
    /// durably record the batch (again rejected whole, before analysis).
    /// [`ServiceError::EcoDegraded`] when the re-analysis blows its
    /// deadline, trips the watchdog, or quarantines faulted work — the
    /// previous placement keeps serving (the published snapshot differs
    /// only in its degraded-ECO count), the signature cache is restored
    /// (a degraded full run would otherwise pollute it with partial
    /// entries), and the journaled record is revoked.
    pub fn eco_update(
        &mut self,
        moves: &[EcoMove],
        deadline: Option<Duration>,
        watchdog: Option<Watchdog>,
    ) -> Result<EcoReply, ServiceError> {
        // Validate every move before touching anything.
        let base = Arc::clone(&self.snapshot);
        let mut resolved = Vec::with_capacity(moves.len());
        for m in moves {
            resolved.push(base.resolve(&m.inst)?);
        }
        // Durably record the accepted batch before analysis: a kill at
        // any later instant leaves it replayable on restart.
        let journal_seq = match self.journal.as_mut() {
            Some(j) => Some(
                j.append(moves)
                    .map_err(|e| ServiceError::Journal(e.to_string()))?,
            ),
            None => None,
        };
        let mut design = (*base.design).clone();
        for (m, comp) in moves.iter().zip(&resolved) {
            let loc = &mut design.component_mut(*comp).location;
            match m.target {
                EcoTarget::Abs(p) => *loc = p,
                EcoTarget::Delta(d) => *loc += d,
            }
        }
        let (h0, m0) = self.cache.stats();
        // A degraded full re-analysis would insert partial entries into
        // the resident cache; keep a pre-analysis copy to restore (entries
        // are shared `Arc`s, so this copies pointers, not analyses).
        let cache_before = self.cache.clone();
        let budget = RunBudget {
            deadline,
            fractions: self.fractions.snapshot(),
            watchdog,
            checkpoint: None,
        };
        if self.collect_rejects {
            pao_obs::enable_ledger();
        }
        let result = PinAccessOracle::with_config(self.config.clone()).analyze_with_cache_budget(
            &base.tech,
            &design,
            &mut self.cache,
            budget,
        );
        let (h1, m1) = self.cache.stats();
        let full_reanalysis = m1 > m0;
        let dump = if self.collect_rejects {
            pao_obs::disable_ledger();
            Some(pao_obs::take_ledger())
        } else {
            None
        };
        let degraded = result.stats.deadline.is_partial() || !result.stats.quarantined.is_empty();
        if degraded {
            // Graceful degradation: the old placement keeps serving.
            self.cache = cache_before;
            let revoked = match (self.journal.as_mut(), journal_seq) {
                (Some(j), Some(seq)) => j.revoke(seq),
                _ => Ok(()),
            };
            self.publish(|s| s.degraded_ecos += 1);
            revoked.map_err(|e| ServiceError::Journal(e.to_string()))?;
            return Err(ServiceError::EcoDegraded {
                quarantined: result.stats.quarantined.len(),
                skipped: result.stats.deadline.skipped_items(),
                stalls: result.stats.deadline.stalls.len(),
            });
        }
        // Fast path: apgen was skipped, so the ledger drain is empty and
        // the existing map stays valid (signatures, hence unique indices,
        // are unchanged). A full re-analysis re-attributes every pin.
        let rejects = match dump {
            Some(dump) if full_reanalysis => Some(Arc::new(build_rejects(&dump))),
            _ => None,
        };
        if full_reanalysis {
            self.fractions
                .publish(PhaseFractions::from_stats(&result.stats));
        }
        let reply = EcoReply {
            moved: moves.len(),
            cache_hits: h1 - h0,
            cache_misses: m1 - m0,
            full_reanalysis,
            failed_pins: result.stats.failed_pins,
            eco_seq: base.eco_updates + 1,
        };
        self.publish(|s| {
            s.design = Arc::new(design);
            s.result = Arc::new(result);
            if let Some(rejects) = rejects {
                s.rejects = rejects;
            }
            s.eco_updates = reply.eco_seq;
        });
        Ok(reply)
    }
}
