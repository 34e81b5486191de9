//! Persistence for the incremental-analysis cache and the phase-granular
//! checkpoint store.
//!
//! Placement optimization runs in many short tool invocations; persisting
//! the per-signature intra-cell analysis lets every invocation after the
//! first skip steps 1–2 entirely. The format is a plain line-oriented
//! text format (like LEF/DEF, greppable and diff-friendly), versioned by
//! a header.
//!
//! [`CheckpointStore`] (format v4) extends the same machinery to
//! *within-run* durability: completed apgen and pattern items are written
//! after each phase (atomic tmp+rename, see [`write_atomic`]), so a
//! deadline-cut, killed, or crashed run resumes via `--checkpoint DIR
//! --resume` without redoing finished work.

use crate::apgen::{AccessPoint, PlanarDir};
use crate::budget::PhaseFractions;
use crate::coord::CoordType;
use crate::oracle::ApTally;
use crate::pattern::AccessPattern;
use pao_geom::{Dbu, Orient, Point};
use pao_tech::Symbol;
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Error produced while loading a persisted cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadCacheError {
    /// Human-readable description.
    pub message: String,
    /// 1-based line number.
    pub line: usize,
}

impl fmt::Display for LoadCacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache load error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for LoadCacheError {}

const MAGIC: &str = "PAO-CACHE v4";

fn coord_code(t: CoordType) -> u8 {
    t.cost() as u8
}

fn coord_from(c: u8) -> Option<CoordType> {
    Some(match c {
        0 => CoordType::OnTrack,
        1 => CoordType::HalfTrack,
        2 => CoordType::ShapeCenter,
        3 => CoordType::EnclosureBoundary,
        _ => return None,
    })
}

fn planar_code(d: PlanarDir) -> char {
    match d {
        PlanarDir::East => 'E',
        PlanarDir::West => 'W',
        PlanarDir::North => 'N',
        PlanarDir::South => 'S',
    }
}

fn planar_from(c: char) -> Option<PlanarDir> {
    Some(match c {
        'E' => PlanarDir::East,
        'W' => PlanarDir::West,
        'N' => PlanarDir::North,
        'S' => PlanarDir::South,
        _ => return None,
    })
}

/// Serializes one access point as a single line.
pub fn write_ap(out: &mut String, ap: &AccessPoint) {
    let vias: Vec<String> = ap.vias.iter().map(|v| v.0.to_string()).collect();
    let planar: String = ap.planar.iter().map(|&d| planar_code(d)).collect();
    let _ = writeln!(
        out,
        "AP {} {} {} {} {} vias={} planar={}",
        ap.pos.x,
        ap.pos.y,
        ap.layer.0,
        coord_code(ap.pref_type),
        coord_code(ap.nonpref_type),
        if vias.is_empty() {
            "-".to_owned()
        } else {
            vias.join(",")
        },
        if planar.is_empty() {
            "-".to_owned()
        } else {
            planar
        },
    );
}

/// Parses a line produced by [`write_ap`].
///
/// # Errors
///
/// Returns [`LoadCacheError`] with the offending line on malformed input.
pub fn parse_ap(line: &str, lineno: usize) -> Result<AccessPoint, LoadCacheError> {
    let err = |m: &str| LoadCacheError {
        message: m.to_owned(),
        line: lineno,
    };
    let mut it = line.split_whitespace();
    if it.next() != Some("AP") {
        return Err(err("expected AP line"));
    }
    let mut num = |name: &str| -> Result<i64, LoadCacheError> {
        it.next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err(&format!("bad {name}")))
    };
    let x = num("x")?;
    let y = num("y")?;
    let layer = num("layer")? as u32;
    let pref = coord_from(num("pref")? as u8).ok_or_else(|| err("bad pref type"))?;
    let nonpref = coord_from(num("nonpref")? as u8).ok_or_else(|| err("bad nonpref type"))?;
    let vias_tok = it.next().ok_or_else(|| err("missing vias"))?;
    let vias_str = vias_tok
        .strip_prefix("vias=")
        .ok_or_else(|| err("missing vias="))?;
    let vias = if vias_str == "-" {
        Vec::new()
    } else {
        vias_str
            .split(',')
            .map(|v| v.parse().map(pao_tech::ViaId))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| err("bad via id"))?
    };
    let planar_tok = it.next().ok_or_else(|| err("missing planar"))?;
    let planar_str = planar_tok
        .strip_prefix("planar=")
        .ok_or_else(|| err("missing planar="))?;
    let planar = if planar_str == "-" {
        Vec::new()
    } else {
        planar_str
            .chars()
            .map(planar_from)
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| err("bad planar code"))?
    };
    Ok(AccessPoint {
        pos: pao_geom::Point::new(x, y),
        layer: pao_tech::LayerId(layer),
        pref_type: pref,
        nonpref_type: nonpref,
        vias,
        planar,
    })
}

/// Serializes one access pattern as a single line.
pub fn write_pattern(out: &mut String, p: &AccessPattern) {
    let choice: Vec<String> = p.choice.iter().map(usize::to_string).collect();
    let _ = writeln!(
        out,
        "PATTERN cost={} validated={} choice={}",
        p.cost,
        p.validated,
        if choice.is_empty() {
            "-".to_owned()
        } else {
            choice.join(",")
        },
    );
}

/// Parses a line produced by [`write_pattern`].
///
/// # Errors
///
/// Returns [`LoadCacheError`] with the offending line on malformed input.
pub fn parse_pattern(line: &str, lineno: usize) -> Result<AccessPattern, LoadCacheError> {
    let err = |m: &str| LoadCacheError {
        message: m.to_owned(),
        line: lineno,
    };
    let mut it = line.split_whitespace();
    if it.next() != Some("PATTERN") {
        return Err(err("expected PATTERN line"));
    }
    let cost = it
        .next()
        .and_then(|t| t.strip_prefix("cost="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("bad cost"))?;
    let validated = it
        .next()
        .and_then(|t| t.strip_prefix("validated="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("bad validated"))?;
    let choice_str = it
        .next()
        .and_then(|t| t.strip_prefix("choice="))
        .ok_or_else(|| err("missing choice"))?;
    let choice = if choice_str == "-" {
        Vec::new()
    } else {
        choice_str
            .split(',')
            .map(str::parse)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| err("bad choice index"))?
    };
    Ok(AccessPattern {
        choice,
        cost,
        validated,
    })
}

/// FNV-1a (64-bit) over the serialized cache body. Not cryptographic —
/// it guards against truncation and accidental corruption, exactly the
/// failure modes of half-written files in an interrupted optimizer loop.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Prepends the versioned, checksummed header (`PAO-CACHE v4
/// fnv1a=<16 hex>`) to a serialized cache body.
pub(crate) fn seal(body: &str) -> String {
    format!("{MAGIC} fnv1a={:016x}\n{body}", fnv1a(body.as_bytes()))
}

/// Validates the header line (version and body checksum) of a persisted
/// cache and returns the body that follows it. Any mismatch — wrong
/// magic, old version, bad or missing checksum — is a [`LoadCacheError`];
/// callers treat that as cache-miss-and-rebuild, never a crash.
pub(crate) fn open(text: &str) -> Result<&str, LoadCacheError> {
    let (header, body) = text.split_once('\n').unwrap_or((text, ""));
    let err = |message: String| LoadCacheError { message, line: 1 };
    let rest = header.trim_end().strip_prefix(MAGIC).ok_or_else(|| {
        let shown: String = header.chars().take(40).collect();
        err(format!("expected `{MAGIC}` header, found `{shown}`"))
    })?;
    let sum = rest
        .trim()
        .strip_prefix("fnv1a=")
        .ok_or_else(|| err("header missing fnv1a= checksum".to_owned()))?;
    let expected =
        u64::from_str_radix(sum, 16).map_err(|_| err(format!("bad checksum `{sum}`")))?;
    let got = fnv1a(body.as_bytes());
    if got != expected {
        return Err(err(format!(
            "checksum mismatch: header fnv1a={expected:016x}, body fnv1a={got:016x} (truncated or corrupt cache)"
        )));
    }
    Ok(body)
}

/// Writes `text` to `path` atomically: the bytes go to a sibling `.tmp`
/// file which is then renamed over the target, so a reader (or a crash
/// mid-write) never observes a half-written file — the checkpoint either
/// has the previous complete state or the new one.
///
/// # Errors
///
/// Any underlying filesystem error.
pub fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Removes stale `*.tmp` orphans left in `dir` by a crash between
/// [`write_atomic`]'s write and rename. Run on every store open: the tmp
/// file is by definition incomplete (the rename never happened), so it is
/// garbage — but without this sweep it survives forever, and a daemon
/// cycling checkpoints accumulates one orphan per crash. Each removal
/// bumps the `checkpoint.tmp_reclaimed` counter; removal errors are
/// ignored (the next open retries).
fn sweep_stale_tmp(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut reclaimed = 0usize;
    for entry in entries.flatten() {
        let path = entry.path();
        let is_tmp = path.extension().is_some_and(|ext| ext == "tmp");
        if is_tmp && path.is_file() && std::fs::remove_file(&path).is_ok() {
            reclaimed += 1;
        }
    }
    if reclaimed > 0 {
        pao_obs::counter_add("checkpoint.tmp_reclaimed", reclaimed as u64);
    }
    reclaimed
}

/// FNV-1a fingerprint of a per-pin access point table, via its canonical
/// serialization. The pattern checkpoint stores this for each instance so
/// a resumed run only reuses pattern results whose *inputs* (the apgen
/// output) are byte-identical to what produced them.
#[must_use]
pub fn aps_fingerprint(pin_aps: &[Vec<AccessPoint>]) -> u64 {
    let mut s = String::new();
    for (pi, aps) in pin_aps.iter().enumerate() {
        let _ = writeln!(s, "PIN {} {}", pi, aps.len());
        for ap in aps {
            write_ap(&mut s, ap);
        }
    }
    fnv1a(s.as_bytes())
}

fn phases_str(phases: &[Dbu]) -> String {
    if phases.is_empty() {
        "-".to_owned()
    } else {
        phases
            .iter()
            .map(i64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn parse_phases(s: &str) -> Option<Vec<Dbu>> {
    if s == "-" {
        return Some(Vec::new());
    }
    s.split(',').map(|t| t.parse().ok()).collect()
}

/// Checkpointed step-1 output for one unique instance: its signature
/// (master/orient/phases + representative location, which anchors the AP
/// frame) plus the per-pin access points and the instance's contribution
/// to the run counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApgenSnapshot {
    /// Cell master name (interned).
    pub master: Symbol,
    /// Placement orientation.
    pub orient: Orient,
    /// Track-phase signature.
    pub phases: Vec<Dbu>,
    /// The representative's placement when the snapshot was made (AP
    /// positions are in that die frame).
    pub rep_location: Point,
    /// Access points per master pin.
    pub pin_aps: Vec<Vec<AccessPoint>>,
    /// This instance's contribution to the step-1 run counters.
    pub tally: ApTally,
}

/// Checkpointed step-2 output for one unique instance. `aps_fnv` pins the
/// snapshot to the exact apgen output it was computed from (see
/// [`aps_fingerprint`]); a mismatch on resume — different design, config,
/// or a partially redone apgen — makes the snapshot a miss, never a wrong
/// answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternSnapshot {
    /// Cell master name (interned).
    pub master: Symbol,
    /// Placement orientation.
    pub orient: Orient,
    /// Track-phase signature.
    pub phases: Vec<Dbu>,
    /// Fingerprint of the `pin_aps` the patterns were derived from.
    pub aps_fnv: u64,
    /// The analyzed pin ordering.
    pub pin_order: Vec<usize>,
    /// Generated access patterns over `pin_order`.
    pub patterns: Vec<AccessPattern>,
}

/// Phase-granular checkpoint store backing `--checkpoint DIR --resume`:
/// completed apgen/pattern items are persisted (atomically) after each
/// phase, keyed by unique-instance index, and restored on the next run
/// when their signatures still match. The directory also carries the
/// measured phase fractions of the last finished run (`history.ckpt`),
/// which seed the next run's [`BudgetAllocator`](crate::budget::BudgetAllocator).
///
/// All files use the sealed v4 format; a corrupt or legacy file on resume
/// degrades to an empty section (reported, never fatal).
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    apgen: HashMap<usize, ApgenSnapshot>,
    pattern: HashMap<usize, PatternSnapshot>,
    fractions: Option<PhaseFractions>,
}

impl CheckpointStore {
    /// Starts a fresh checkpoint in `dir` (created if missing). Stale
    /// apgen/pattern checkpoints from earlier runs are removed — a
    /// non-resume run must never silently reuse them — but the fraction
    /// history survives (it seeds the budget allocator).
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn create(dir: impl Into<PathBuf>) -> std::io::Result<CheckpointStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        sweep_stale_tmp(&dir);
        for name in ["apgen.ckpt", "pattern.ckpt"] {
            let p = dir.join(name);
            if p.exists() {
                std::fs::remove_file(&p)?;
            }
        }
        let fractions = load_history(&dir.join("history.ckpt"));
        Ok(CheckpointStore {
            dir,
            apgen: HashMap::new(),
            pattern: HashMap::new(),
            fractions,
        })
    }

    /// Resumes from the checkpoints in `dir`. Missing files are empty
    /// sections; corrupt or legacy-version files are *rejected* sections
    /// — their parse errors come back alongside the (empty-there) store
    /// so the caller can report them, and the run proceeds as if that
    /// phase had no checkpoint.
    ///
    /// # Errors
    ///
    /// Only on filesystem errors creating the directory; data problems
    /// are returned as [`LoadCacheError`]s, not failures.
    pub fn resume(
        dir: impl Into<PathBuf>,
    ) -> std::io::Result<(CheckpointStore, Vec<LoadCacheError>)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        sweep_stale_tmp(&dir);
        let mut rejected = Vec::new();
        let mut apgen = HashMap::new();
        let mut pattern = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(dir.join("apgen.ckpt")) {
            match parse_apgen_checkpoint(&text) {
                Ok(map) => apgen = map,
                Err(e) => rejected.push(e),
            }
        }
        if let Ok(text) = std::fs::read_to_string(dir.join("pattern.ckpt")) {
            match parse_pattern_checkpoint(&text) {
                Ok(map) => pattern = map,
                Err(e) => rejected.push(e),
            }
        }
        let fractions = load_history(&dir.join("history.ckpt"));
        Ok((
            CheckpointStore {
                dir,
                apgen,
                pattern,
                fractions,
            },
            rejected,
        ))
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Restorable apgen snapshot for unique-instance index `idx`.
    #[must_use]
    pub fn apgen(&self, idx: usize) -> Option<&ApgenSnapshot> {
        self.apgen.get(&idx)
    }

    /// Restorable pattern snapshot for unique-instance index `idx`.
    #[must_use]
    pub fn pattern(&self, idx: usize) -> Option<&PatternSnapshot> {
        self.pattern.get(&idx)
    }

    /// Number of apgen snapshots currently held.
    #[must_use]
    pub fn apgen_len(&self) -> usize {
        self.apgen.len()
    }

    /// Number of pattern snapshots currently held.
    #[must_use]
    pub fn pattern_len(&self) -> usize {
        self.pattern.len()
    }

    /// Records (or replaces) the apgen snapshot for instance `idx`.
    pub fn put_apgen(&mut self, idx: usize, snap: ApgenSnapshot) {
        self.apgen.insert(idx, snap);
    }

    /// Records (or replaces) the pattern snapshot for instance `idx`.
    pub fn put_pattern(&mut self, idx: usize, snap: PatternSnapshot) {
        self.pattern.insert(idx, snap);
    }

    /// Persists the apgen section atomically (tmp+rename).
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn save_apgen(&self) -> std::io::Result<()> {
        let mut body = String::new();
        let mut idxs: Vec<&usize> = self.apgen.keys().collect();
        idxs.sort();
        for &idx in idxs {
            let s = &self.apgen[&idx];
            let _ = writeln!(
                body,
                "INST {} master={} orient={} phases={} rep={},{} counts={},{},{},{}",
                idx,
                s.master,
                s.orient,
                phases_str(&s.phases),
                s.rep_location.x,
                s.rep_location.y,
                s.tally.total,
                s.tally.dirty,
                s.tally.without,
                s.tally.off_track,
            );
            for (pi, aps) in s.pin_aps.iter().enumerate() {
                let _ = writeln!(body, "PIN {} {}", pi, aps.len());
                for ap in aps {
                    write_ap(&mut body, ap);
                }
            }
            let _ = writeln!(body, "END");
        }
        write_atomic(&self.dir.join("apgen.ckpt"), &seal(&body))
    }

    /// Persists the pattern section atomically (tmp+rename).
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn save_pattern(&self) -> std::io::Result<()> {
        let mut body = String::new();
        let mut idxs: Vec<&usize> = self.pattern.keys().collect();
        idxs.sort();
        for &idx in idxs {
            let s = &self.pattern[&idx];
            let _ = writeln!(
                body,
                "INST {} master={} orient={} phases={} aps={:016x}",
                idx,
                s.master,
                s.orient,
                phases_str(&s.phases),
                s.aps_fnv,
            );
            let order: Vec<String> = s.pin_order.iter().map(usize::to_string).collect();
            let _ = writeln!(
                body,
                "ORDER {}",
                if order.is_empty() {
                    "-".to_owned()
                } else {
                    order.join(",")
                },
            );
            for p in &s.patterns {
                write_pattern(&mut body, p);
            }
            let _ = writeln!(body, "END");
        }
        write_atomic(&self.dir.join("pattern.ckpt"), &seal(&body))
    }

    /// The phase fractions measured by the last finished run in this
    /// directory, if any.
    #[must_use]
    pub fn fractions(&self) -> Option<PhaseFractions> {
        self.fractions
    }

    /// Persists `fractions` as this directory's history (atomically) and
    /// remembers them in the store.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn save_fractions(&mut self, fractions: PhaseFractions) -> std::io::Result<()> {
        self.fractions = Some(fractions);
        let body = format!("{}\n", fractions.to_line());
        write_atomic(&self.dir.join("history.ckpt"), &seal(&body))
    }
}

/// Loads the fraction history, degrading to `None` on any problem (a
/// corrupt history only costs allocator accuracy, never correctness).
fn load_history(path: &Path) -> Option<PhaseFractions> {
    let text = std::fs::read_to_string(path).ok()?;
    let body = open(&text).ok()?;
    body.lines().find_map(PhaseFractions::parse_line)
}

/// Parsed `INST` header: the instance index plus its `key=value` pairs.
type InstHeader<'a> = (usize, Vec<(&'a str, &'a str)>);

/// Splits `rest` of an `INST` line into `(idx, key=value map iterator)`.
fn parse_inst_header(line: &str, lineno: usize) -> Result<InstHeader<'_>, LoadCacheError> {
    let err = |m: &str| LoadCacheError {
        message: m.to_owned(),
        line: lineno,
    };
    let rest = line
        .strip_prefix("INST ")
        .ok_or_else(|| err("expected INST"))?;
    let mut it = rest.split_whitespace();
    let idx: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| err("bad INST index"))?;
    let kvs = it.filter_map(|tok| tok.split_once('=')).collect();
    Ok((idx, kvs))
}

fn parse_apgen_checkpoint(text: &str) -> Result<HashMap<usize, ApgenSnapshot>, LoadCacheError> {
    let body = open(text)?;
    let err = |m: &str, n: usize| LoadCacheError {
        message: m.to_owned(),
        line: n + 2,
    };
    let mut out = HashMap::new();
    let mut lines = body.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (idx, kvs) = parse_inst_header(line, n + 2)?;
        let mut master = None;
        let mut orient = None;
        let mut phases = None;
        let mut rep = None;
        let mut counts = None;
        for (k, v) in kvs {
            match k {
                "master" => master = Some(Symbol::intern(v)),
                "orient" => {
                    orient = Some(v.parse::<Orient>().map_err(|e| err(&e.to_string(), n))?);
                }
                "phases" => phases = parse_phases(v),
                "rep" => {
                    let (x, y) = v.split_once(',').ok_or_else(|| err("bad rep", n))?;
                    rep = Some(Point::new(
                        x.parse().map_err(|_| err("bad rep x", n))?,
                        y.parse().map_err(|_| err("bad rep y", n))?,
                    ));
                }
                "counts" => {
                    let cs: Vec<usize> = v
                        .split(',')
                        .map(|t| t.parse().ok())
                        .collect::<Option<Vec<_>>>()
                        .ok_or_else(|| err("bad counts", n))?;
                    if cs.len() != 4 {
                        return Err(err("counts needs 4 fields", n));
                    }
                    counts = Some((cs[0], cs[1], cs[2], cs[3]));
                }
                _ => {}
            }
        }
        let master = master.ok_or_else(|| err("INST missing master", n))?;
        let orient = orient.ok_or_else(|| err("INST missing orient", n))?;
        let phases = phases.ok_or_else(|| err("INST missing phases", n))?;
        let rep_location = rep.ok_or_else(|| err("INST missing rep", n))?;
        let (total, dirty, without, off_track) =
            counts.ok_or_else(|| err("INST missing counts", n))?;
        let mut pin_aps: Vec<Vec<AccessPoint>> = Vec::new();
        loop {
            let (bn, bline) = lines.next().ok_or_else(|| err("unterminated INST", n))?;
            let bline = bline.trim();
            if bline == "END" {
                break;
            } else if let Some(rest) = bline.strip_prefix("PIN ") {
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
                    let (an, ap_line) = lines.next().ok_or_else(|| err("missing AP line", bn))?;
                    pin_aps[pi].push(parse_ap(ap_line.trim(), an + 2)?);
                }
            } else {
                return Err(err("unexpected line in INST", bn));
            }
        }
        out.insert(
            idx,
            ApgenSnapshot {
                master,
                orient,
                phases,
                rep_location,
                pin_aps,
                tally: ApTally {
                    total,
                    dirty,
                    without,
                    off_track,
                },
            },
        );
    }
    Ok(out)
}

fn parse_pattern_checkpoint(text: &str) -> Result<HashMap<usize, PatternSnapshot>, LoadCacheError> {
    let body = open(text)?;
    let err = |m: &str, n: usize| LoadCacheError {
        message: m.to_owned(),
        line: n + 2,
    };
    let mut out = HashMap::new();
    let mut lines = body.lines().enumerate();
    while let Some((n, line)) = lines.next() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (idx, kvs) = parse_inst_header(line, n + 2)?;
        let mut master = None;
        let mut orient = None;
        let mut phases = None;
        let mut aps_fnv = None;
        for (k, v) in kvs {
            match k {
                "master" => master = Some(Symbol::intern(v)),
                "orient" => {
                    orient = Some(v.parse::<Orient>().map_err(|e| err(&e.to_string(), n))?);
                }
                "phases" => phases = parse_phases(v),
                "aps" => {
                    aps_fnv = Some(u64::from_str_radix(v, 16).map_err(|_| err("bad aps hash", n))?);
                }
                _ => {}
            }
        }
        let master = master.ok_or_else(|| err("INST missing master", n))?;
        let orient = orient.ok_or_else(|| err("INST missing orient", n))?;
        let phases = phases.ok_or_else(|| err("INST missing phases", n))?;
        let aps_fnv = aps_fnv.ok_or_else(|| err("INST missing aps hash", n))?;
        let mut pin_order = Vec::new();
        let mut patterns = Vec::new();
        loop {
            let (bn, bline) = lines.next().ok_or_else(|| err("unterminated INST", n))?;
            let bline = bline.trim();
            if bline == "END" {
                break;
            } else if let Some(rest) = bline.strip_prefix("ORDER ") {
                if rest != "-" {
                    pin_order = rest
                        .split(',')
                        .map(str::parse)
                        .collect::<Result<Vec<usize>, _>>()
                        .map_err(|_| err("bad ORDER", bn))?;
                }
            } else if bline.starts_with("PATTERN") {
                patterns.push(parse_pattern(bline, bn + 2)?);
            } else {
                return Err(err("unexpected line in INST", bn));
            }
        }
        out.insert(
            idx,
            PatternSnapshot {
                master,
                orient,
                phases,
                aps_fnv,
                pin_order,
                patterns,
            },
        );
    }
    Ok(out)
}

/// One recovered entry of the [`EcoJournal`]: a batch of moves that was
/// accepted (durably recorded) by a previous daemon incarnation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotone journal sequence number (1-based).
    pub seq: u64,
    /// The recorded move batch, in request order.
    pub moves: Vec<crate::service::EcoMove>,
}

/// Crash-safe write-ahead log for `eco_update` batches (the durability
/// half of the `pao serve` hardening contract, format `PAO-JOURNAL v3`).
///
/// Unlike the checkpoint files — whole-file seal + atomic rename — the
/// journal is *append-only*: each accepted ECO batch becomes one entry
/// written and fsynced **before** its re-analysis runs, so a daemon
/// killed at any instant can replay the journal on restart and land
/// bit-identical to a twin that never died. Every entry carries its own
/// FNV-1a checksum over its move lines:
///
/// ```text
/// PAO-JOURNAL v3
/// BEGIN seq=3 moves=2 fnv1a=00a1b2c3d4e5f607
/// M A 1200 3400 u17
/// M D -40 0 corner cell with spaces
/// COMMIT 3
/// REVOKE 3
/// ```
///
/// `M A x y inst` is an absolute move, `M D dx dy inst` a relative one
/// (the instance name is the final field and may contain spaces). A
/// `COMMIT` whose sequence matches closes the entry; a kill mid-append
/// leaves a torn tail that fails its checksum or lacks its `COMMIT` and
/// is discarded on replay — together with everything after it, because
/// entries only replay in order. `REVOKE seq` marks an entry that was
/// recorded but then *not* applied (its re-analysis degraded and the old
/// snapshot kept serving); replay skips revoked entries.
#[derive(Debug)]
pub struct EcoJournal {
    path: PathBuf,
    file: std::fs::File,
    next_seq: u64,
    entries: u64,
}

const JOURNAL_MAGIC: &str = "PAO-JOURNAL v3";

/// Serializes one move as an `M` line (instance name last, so names with
/// spaces survive the round trip).
fn write_move(out: &mut String, m: &crate::service::EcoMove) {
    use crate::service::EcoTarget;
    match m.target {
        EcoTarget::Abs(p) => {
            let _ = writeln!(out, "M A {} {} {}", p.x, p.y, m.inst);
        }
        EcoTarget::Delta(d) => {
            let _ = writeln!(out, "M D {} {} {}", d.x, d.y, m.inst);
        }
    }
}

/// Parses a line produced by [`write_move`].
fn parse_move(line: &str) -> Option<crate::service::EcoMove> {
    use crate::service::{EcoMove, EcoTarget};
    let mut it = line.splitn(3, ' ');
    if it.next() != Some("M") {
        return None;
    }
    let kind = it.next()?;
    let rest = it.next()?;
    // `x y inst…`: split the two coordinates off the front, keep the rest
    // verbatim as the instance name.
    let mut it = rest.splitn(2, ' ');
    let x: i64 = it.next()?.parse().ok()?;
    let tail = it.next()?;
    let mut it = tail.splitn(2, ' ');
    let y: i64 = it.next()?.parse().ok()?;
    let inst = it.next()?.to_owned();
    let p = Point::new(x, y);
    let target = match kind {
        "A" => EcoTarget::Abs(p),
        "D" => EcoTarget::Delta(p),
        _ => return None,
    };
    Some(EcoMove { inst, target })
}

impl EcoJournal {
    /// Starts a fresh journal at `path`, truncating whatever was there (a
    /// non-resume daemon start must never replay stale entries — same
    /// rule as [`CheckpointStore::create`]).
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<EcoJournal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = std::fs::File::create(&path)?;
        {
            use std::io::Write as _;
            writeln!(file, "{JOURNAL_MAGIC}")?;
            file.sync_all()?;
        }
        Ok(EcoJournal {
            path,
            file,
            next_seq: 1,
            entries: 0,
        })
    }

    /// Reopens the journal at `path` and recovers its committed entries
    /// in order: revoked entries are dropped, and the first torn or
    /// corrupt record ends recovery (everything after it is discarded,
    /// reported through the returned [`LoadCacheError`] — order matters,
    /// so nothing past a bad record may replay). A missing file starts an
    /// empty journal.
    ///
    /// # Errors
    ///
    /// Only filesystem errors; data problems come back as the optional
    /// [`LoadCacheError`] alongside the recovered prefix.
    pub fn resume(
        path: impl Into<PathBuf>,
    ) -> std::io::Result<(EcoJournal, Vec<JournalEntry>, Option<LoadCacheError>)> {
        let path = path.into();
        if !path.exists() {
            let journal = EcoJournal::create(&path)?;
            return Ok((journal, Vec::new(), None));
        }
        let text = std::fs::read_to_string(&path)?;
        let (entries, truncated, warning) = parse_journal(&text);
        if truncated {
            // Drop the torn tail on disk too, so the next append extends a
            // well-formed file instead of burying garbage mid-journal.
            let mut body = format!("{JOURNAL_MAGIC}\n");
            for e in &entries {
                let mut moves = String::new();
                for m in &e.moves {
                    write_move(&mut moves, m);
                }
                body.push_str(&entry_text(e.seq, e.moves.len(), &moves));
            }
            std::fs::write(&path, &body)?;
        }
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        let next_seq = entries.iter().map(|e| e.seq).max().unwrap_or(0) + 1;
        let journal = EcoJournal {
            path,
            file,
            next_seq,
            entries: entries.len() as u64,
        };
        Ok((journal, entries, warning))
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Committed (non-revoked at last count) entries written or recovered
    /// through this handle.
    #[must_use]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Durably records one accepted move batch *before* its analysis runs
    /// and returns the entry's sequence number. The entry is fsynced: when
    /// this returns `Ok`, a kill at any later instant leaves the batch
    /// replayable.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error — the caller must then reject the
    /// ECO (no durability, no apply).
    pub fn append(&mut self, moves: &[crate::service::EcoMove]) -> std::io::Result<u64> {
        use std::io::Write as _;
        let seq = self.next_seq;
        let mut body = String::new();
        for m in moves {
            write_move(&mut body, m);
        }
        let text = entry_text(seq, moves.len(), &body);
        self.file.write_all(text.as_bytes())?;
        self.file.sync_data()?;
        self.next_seq += 1;
        self.entries += 1;
        Ok(seq)
    }

    /// Marks entry `seq` as not-applied (its re-analysis degraded; the
    /// previous snapshot kept serving). Replay skips revoked entries.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn revoke(&mut self, seq: u64) -> std::io::Result<()> {
        use std::io::Write as _;
        writeln!(self.file, "REVOKE {seq}")?;
        self.file.sync_data()?;
        self.entries = self.entries.saturating_sub(1);
        Ok(())
    }
}

/// One serialized journal entry (header + move lines + commit).
fn entry_text(seq: u64, moves: usize, body: &str) -> String {
    format!(
        "BEGIN seq={seq} moves={moves} fnv1a={:016x}\n{body}COMMIT {seq}\n",
        fnv1a(body.as_bytes())
    )
}

/// Recovers `(entries, tail_truncated, warning)` from journal text.
/// Entries after the first malformed record are discarded.
fn parse_journal(text: &str) -> (Vec<JournalEntry>, bool, Option<LoadCacheError>) {
    let mut entries: Vec<JournalEntry> = Vec::new();
    let bad = |line: usize, message: String| {
        (
            true,
            Some(LoadCacheError {
                message: format!("journal tail discarded: {message}"),
                line,
            }),
        )
    };
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        let (t, w) = bad(1, "empty journal".to_owned());
        return (entries, t, w);
    };
    if header.trim() != JOURNAL_MAGIC {
        let (t, w) = bad(1, format!("expected `{JOURNAL_MAGIC}` header"));
        return (entries, t, w);
    }
    while let Some((n, line)) = lines.next() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(seq_str) = line.strip_prefix("REVOKE ") {
            match seq_str.trim().parse::<u64>() {
                Ok(seq) => entries.retain(|e| e.seq != seq),
                Err(_) => {
                    let (t, w) = bad(n + 1, "bad REVOKE sequence".to_owned());
                    return (entries, t, w);
                }
            }
            continue;
        }
        let Some(rest) = line.strip_prefix("BEGIN ") else {
            let (t, w) = bad(n + 1, format!("unexpected line `{line}`"));
            return (entries, t, w);
        };
        let mut seq = None;
        let mut count = None;
        let mut sum = None;
        for tok in rest.split_whitespace() {
            if let Some(v) = tok.strip_prefix("seq=") {
                seq = v.parse::<u64>().ok();
            } else if let Some(v) = tok.strip_prefix("moves=") {
                count = v.parse::<usize>().ok();
            } else if let Some(v) = tok.strip_prefix("fnv1a=") {
                sum = u64::from_str_radix(v, 16).ok();
            }
        }
        let (Some(seq), Some(count), Some(sum)) = (seq, count, sum) else {
            let (t, w) = bad(n + 1, "bad BEGIN header".to_owned());
            return (entries, t, w);
        };
        let mut body = String::new();
        let mut moves = Vec::with_capacity(count);
        for _ in 0..count {
            let Some((mn, mline)) = lines.next() else {
                let (t, w) = bad(n + 1, "entry truncated mid-moves".to_owned());
                return (entries, t, w);
            };
            let Some(m) = parse_move(mline.trim_end()) else {
                let (t, w) = bad(mn + 1, format!("bad move line `{mline}`"));
                return (entries, t, w);
            };
            body.push_str(mline.trim_end());
            body.push('\n');
            moves.push(m);
        }
        if fnv1a(body.as_bytes()) != sum {
            let (t, w) = bad(n + 1, format!("entry seq={seq} failed its checksum"));
            return (entries, t, w);
        }
        match lines.next() {
            Some((_, cline)) if cline.trim_end() == format!("COMMIT {seq}") => {}
            _ => {
                let (t, w) = bad(n + 1, format!("entry seq={seq} missing COMMIT"));
                return (entries, t, w);
            }
        }
        entries.push(JournalEntry { seq, moves });
    }
    (entries, false, None)
}

#[cfg(test)]
mod journal_tests {
    use super::*;
    use crate::service::{EcoMove, EcoTarget};

    fn mv(inst: &str, target: EcoTarget) -> EcoMove {
        EcoMove {
            inst: inst.to_owned(),
            target,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pao_journal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("eco.journal")
    }

    #[test]
    fn append_resume_roundtrip_preserves_order_and_revokes() {
        let path = tmp("roundtrip");
        let mut j = EcoJournal::create(&path).unwrap();
        let b1 = vec![mv("u1", EcoTarget::Abs(Point::new(100, 200)))];
        let b2 = vec![
            mv("u2", EcoTarget::Delta(Point::new(-40, 0))),
            mv("cell with spaces", EcoTarget::Abs(Point::new(0, -7))),
        ];
        let b3 = vec![mv("u3", EcoTarget::Delta(Point::new(5, 5)))];
        assert_eq!(j.append(&b1).unwrap(), 1);
        assert_eq!(j.append(&b2).unwrap(), 2);
        assert_eq!(j.append(&b3).unwrap(), 3);
        j.revoke(2).unwrap();
        assert_eq!(j.entries(), 2);
        drop(j);

        let (j2, entries, warn) = EcoJournal::resume(&path).unwrap();
        assert!(warn.is_none(), "{warn:?}");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0], JournalEntry { seq: 1, moves: b1 });
        assert_eq!(entries[1], JournalEntry { seq: 3, moves: b3 });
        assert_eq!(j2.entries(), 2);
        // New appends continue the sequence past the recovered maximum.
        let mut j2 = j2;
        assert_eq!(j2.append(&b2).unwrap(), 4);
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let path = tmp("torn");
        let mut j = EcoJournal::create(&path).unwrap();
        let b1 = vec![mv("u1", EcoTarget::Abs(Point::new(1, 2)))];
        let b2 = vec![mv("u2", EcoTarget::Abs(Point::new(3, 4)))];
        j.append(&b1).unwrap();
        j.append(&b2).unwrap();
        drop(j);
        // Simulate a kill mid-append: chop bytes off the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let (_, entries, warn) = EcoJournal::resume(&path).unwrap();
        assert_eq!(entries.len(), 1, "torn entry must not replay");
        assert_eq!(entries[0].moves, b1);
        assert!(warn.is_some(), "torn tail must be reported");
        // Resume rewrote a clean file: a second resume sees no warning.
        let (_, entries2, warn2) = EcoJournal::resume(&path).unwrap();
        assert_eq!(entries2, entries);
        assert!(warn2.is_none(), "{warn2:?}");
    }

    #[test]
    fn corrupt_entry_ends_recovery_before_later_entries() {
        let path = tmp("corrupt");
        let mut j = EcoJournal::create(&path).unwrap();
        j.append(&[mv("u1", EcoTarget::Abs(Point::new(1, 2)))])
            .unwrap();
        j.append(&[mv("u2", EcoTarget::Abs(Point::new(3, 4)))])
            .unwrap();
        j.append(&[mv("u3", EcoTarget::Abs(Point::new(5, 6)))])
            .unwrap();
        drop(j);
        // Flip a byte inside entry 2's move line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let pos = text.find("M A 3 4 u2").unwrap();
        text.replace_range(pos..pos + 10, "M A 3 9 u2");
        std::fs::write(&path, &text).unwrap();
        let (_, entries, warn) = EcoJournal::resume(&path).unwrap();
        // Entry 2 fails its checksum; entry 3 must NOT replay without it.
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].seq, 1);
        assert!(warn.is_some());
    }

    #[test]
    fn missing_file_resumes_empty() {
        let path = tmp("missing");
        let (j, entries, warn) = EcoJournal::resume(&path).unwrap();
        assert!(entries.is_empty());
        assert!(warn.is_none());
        assert_eq!(j.entries(), 0);
        assert!(path.exists(), "resume must create the journal file");
    }

    #[test]
    fn random_byte_smashes_never_panic_or_misparse() {
        let path = tmp("fuzz");
        let mut j = EcoJournal::create(&path).unwrap();
        for i in 0..4 {
            j.append(&[mv(&format!("u{i}"), EcoTarget::Abs(Point::new(i, -i)))])
                .unwrap();
        }
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        pao_ptest::check("journal.byte_mutation", 200, |rng| {
            let mut bytes = text.clone().into_bytes();
            if rng.gen_bool(0.3) {
                bytes.truncate(rng.gen_range(0..bytes.len()));
            } else {
                for _ in 0..rng.gen_range(1..=3usize) {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] = rng.gen_range(0..=255u64) as u8;
                }
            }
            let mutated = String::from_utf8_lossy(&bytes).into_owned();
            let (entries, _, _) = parse_journal(&mutated);
            // Recovered entries must be a prefix of the originals: a
            // mutation may shorten the journal, never change a move.
            let (reference, _, _) = parse_journal(&text);
            assert!(entries.len() <= reference.len());
            for (got, want) in entries.iter().zip(&reference) {
                assert_eq!(got, want, "mutation changed a recovered entry");
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pao_geom::Point;
    use pao_tech::{LayerId, ViaId};

    fn sample_ap() -> AccessPoint {
        AccessPoint {
            pos: Point::new(-120, 4500),
            layer: LayerId(0),
            pref_type: CoordType::ShapeCenter,
            nonpref_type: CoordType::OnTrack,
            vias: vec![ViaId(3), ViaId(1)],
            planar: vec![PlanarDir::East, PlanarDir::South],
        }
    }

    #[test]
    fn ap_roundtrip() {
        let ap = sample_ap();
        let mut s = String::new();
        write_ap(&mut s, &ap);
        let back = parse_ap(s.trim_end(), 1).unwrap();
        assert_eq!(ap, back);
    }

    #[test]
    fn ap_roundtrip_empty_lists() {
        let mut ap = sample_ap();
        ap.vias.clear();
        ap.planar.clear();
        let mut s = String::new();
        write_ap(&mut s, &ap);
        assert_eq!(parse_ap(s.trim_end(), 1).unwrap(), ap);
    }

    #[test]
    fn pattern_roundtrip() {
        let p = AccessPattern {
            choice: vec![0, 2, 1],
            cost: -42,
            validated: true,
        };
        let mut s = String::new();
        write_pattern(&mut s, &p);
        assert_eq!(parse_pattern(s.trim_end(), 1).unwrap(), p);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        assert!(parse_ap("AP 1 2", 7).unwrap_err().line == 7);
        assert!(parse_ap("NOPE", 3).is_err());
        assert!(parse_pattern("PATTERN cost=x validated=true choice=-", 2).is_err());
    }

    #[test]
    fn seal_open_roundtrip() {
        let sealed = seal("BODY line 1\nBODY line 2\n");
        assert!(sealed.starts_with("PAO-CACHE v4 fnv1a="));
        assert_eq!(open(&sealed).unwrap(), "BODY line 1\nBODY line 2\n");
    }

    #[test]
    fn open_rejects_corruption_and_old_versions() {
        // Wrong magic / legacy version: version mismatch, not a panic.
        assert!(open("garbage").is_err());
        assert!(open("PAO-CACHE v1\nENTRY ...\n").is_err());
        assert!(open("PAO-CACHE v2 fnv1a=0000000000000000\n").is_err());
        assert!(open("PAO-CACHE v3 fnv1a=cbf29ce484222325\n").is_err());
        assert!(open("").is_err());
        // Missing or malformed checksum.
        assert!(open("PAO-CACHE v4\nbody\n").is_err());
        assert!(open("PAO-CACHE v4 fnv1a=xyz\nbody\n").is_err());
        // Truncated body no longer matches the recorded checksum.
        let sealed = seal("line 1\nline 2\n");
        let truncated = &sealed[..sealed.len() - 3];
        let e = open(truncated).unwrap_err();
        assert!(e.message.contains("checksum mismatch"), "{e}");
        // A flipped body byte is caught too.
        let flipped = sealed.replace("line 2", "line 3");
        assert!(open(&flipped).is_err());
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pao-persist-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_apgen_snapshot() -> ApgenSnapshot {
        ApgenSnapshot {
            master: "BUFX1".into(),
            orient: Orient::N,
            phases: vec![0, 140],
            rep_location: Point::new(1200, -400),
            pin_aps: vec![
                vec![sample_ap()],
                Vec::new(),
                vec![sample_ap(), sample_ap()],
            ],
            tally: ApTally {
                total: 3,
                dirty: 0,
                without: 1,
                off_track: 2,
            },
        }
    }

    #[test]
    fn checkpoint_roundtrips_through_disk() {
        let dir = tmpdir("roundtrip");
        let mut store = CheckpointStore::create(&dir).unwrap();
        let apgen = sample_apgen_snapshot();
        store.put_apgen(7, apgen.clone());
        let pattern = PatternSnapshot {
            master: "BUFX1".into(),
            orient: Orient::FS,
            phases: Vec::new(),
            aps_fnv: aps_fingerprint(&apgen.pin_aps),
            pin_order: vec![2, 0],
            patterns: vec![AccessPattern {
                choice: vec![0, 1],
                cost: 5,
                validated: true,
            }],
        };
        store.put_pattern(7, pattern.clone());
        store.save_apgen().unwrap();
        store.save_pattern().unwrap();
        store
            .save_fractions(PhaseFractions([0.5, 0.2, 0.1, 0.1, 0.1]))
            .unwrap();

        let (back, rejected) = CheckpointStore::resume(&dir).unwrap();
        assert!(rejected.is_empty(), "{rejected:?}");
        assert_eq!(back.apgen(7), Some(&apgen));
        assert_eq!(back.pattern(7), Some(&pattern));
        assert_eq!(back.apgen(0), None);
        assert_eq!(back.apgen_len(), 1);
        let f = back.fractions().expect("history restored");
        assert!((f.0[0] - 0.5).abs() < 1e-3, "{f:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_clears_stale_checkpoints_but_keeps_history() {
        let dir = tmpdir("stale");
        let mut store = CheckpointStore::create(&dir).unwrap();
        store.put_apgen(0, sample_apgen_snapshot());
        store.save_apgen().unwrap();
        store.save_fractions(PhaseFractions::DEFAULT).unwrap();
        // A fresh (non-resume) run must not see the old snapshots…
        let fresh = CheckpointStore::create(&dir).unwrap();
        assert_eq!(fresh.apgen_len(), 0);
        assert!(!dir.join("apgen.ckpt").exists());
        // …but keeps the measured fractions for its allocator.
        assert!(fresh.fractions().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_reclaims_stale_tmp_orphans() {
        // A crash between write_atomic's write and rename leaves a
        // `*.tmp` orphan; both open paths must sweep it so a daemon
        // cycling checkpoints never accumulates garbage.
        let dir = tmpdir("tmp_orphans");
        // Seed a real (sealed) history file through the store API, then
        // fake the crash leftovers by hand.
        CheckpointStore::create(&dir)
            .unwrap()
            .save_fractions(PhaseFractions([0.5, 0.2, 0.1, 0.1, 0.1]))
            .unwrap();
        std::fs::write(dir.join("apgen.ckpt.tmp"), "half-written").unwrap();
        std::fs::write(dir.join("pattern.ckpt.tmp"), "also half").unwrap();
        let (store, rejected) = CheckpointStore::resume(&dir).unwrap();
        assert!(rejected.is_empty(), "{rejected:?}");
        assert!(!dir.join("apgen.ckpt.tmp").exists(), "orphan swept");
        assert!(!dir.join("pattern.ckpt.tmp").exists(), "orphan swept");
        assert!(store.fractions().is_some(), "real files survive the sweep");
        drop(store);

        std::fs::write(dir.join("history.ckpt.tmp"), "stale").unwrap();
        let fresh = CheckpointStore::create(&dir).unwrap();
        assert!(!dir.join("history.ckpt.tmp").exists(), "create sweeps too");
        assert!(fresh.fractions().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_degrades_to_empty_with_report() {
        let dir = tmpdir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("apgen.ckpt"), "PAO-CACHE v2 fnv1a=0\nINST\n").unwrap();
        std::fs::write(dir.join("pattern.ckpt"), seal("INST not-a-number\n")).unwrap();
        std::fs::write(dir.join("history.ckpt"), "garbage").unwrap();
        let (store, rejected) = CheckpointStore::resume(&dir).unwrap();
        assert_eq!(rejected.len(), 2, "{rejected:?}");
        assert_eq!(store.apgen_len(), 0);
        assert_eq!(store.pattern_len(), 0);
        assert!(store.fractions().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = tmpdir("atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.ckpt");
        write_atomic(&path, "first version, quite long\n").unwrap();
        write_atomic(&path, "second\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        assert!(!dir.join("x.ckpt.tmp").exists(), "tmp file renamed away");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aps_fingerprint_distinguishes_tables() {
        let a = vec![vec![sample_ap()]];
        let mut moved = sample_ap();
        moved.pos.x += 10;
        let b = vec![vec![moved]];
        assert_eq!(aps_fingerprint(&a), aps_fingerprint(&a));
        assert_ne!(aps_fingerprint(&a), aps_fingerprint(&b));
        assert_ne!(aps_fingerprint(&a), aps_fingerprint(&[]));
    }
}
