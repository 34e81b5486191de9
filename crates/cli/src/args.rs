//! Tiny dependency-free argument parser with per-subcommand option sets.

/// Parsed command-line arguments: positionals in order, `--flag` booleans,
/// and `--key value` pairs.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: Vec<String>,
    values: Vec<(String, String)>,
}

/// The options one subcommand accepts: the ones that take a value and
/// the boolean flags. Anything else is a usage error for that
/// subcommand, so an option another subcommand owns — or a misspelled or
/// retired one — never silently does nothing.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    command: &'static str,
    values: &'static [&'static str],
    flags: &'static [&'static str],
}

/// The option set of subcommand `command`, or `None` for an unknown
/// subcommand.
#[must_use]
pub fn spec(command: &str) -> Option<Spec> {
    let (command, values, flags): (
        &'static str,
        &'static [&'static str],
        &'static [&'static str],
    ) = match command {
        "analyze" => (
            "analyze",
            &[
                "--threads",
                "--k",
                "--report",
                "--svg",
                "--cache",
                "--trace",
                "--inject-fault",
                "--inject-stall",
                "--deadline-ms",
                "--checkpoint",
                "--watchdog-ms",
                "--select-split",
                "--dump-selection",
            ],
            &[
                "--no-bca",
                "--metrics",
                "--degraded-ok",
                "--deadline-ok",
                "--resume",
            ],
        ),
        "route" => ("route", &["--report"], &["--naive"]),
        "drc" => ("drc", &[], &[]),
        "gen" => ("gen", &["--lef", "--def"], &[]),
        "bench" => ("bench", &["--case", "--threads", "--out"], &[]),
        "sweep" => ("sweep", &["--case", "--threads", "--dir"], &[]),
        "profile" => (
            "profile",
            &[
                "--case",
                "--threads",
                "--trace",
                "--report",
                "--inject-fault",
                "--inject-stall",
                "--deadline-ms",
                "--watchdog-ms",
                "--select-split",
                "--socket",
                "--tcp",
                "--timeout-ms",
            ],
            &["--ledger"],
        ),
        "explain" => (
            "explain",
            &["--pin", "--inst", "--threads", "--report"],
            &[],
        ),
        "report" => ("report", &["--out", "--top", "--heatmap", "--threads"], &[]),
        "serve" => (
            "serve",
            &[
                "--socket",
                "--tcp",
                "--threads",
                "--deadline-ms",
                "--watchdog-ms",
                "--checkpoint",
                "--journal",
                "--max-frame-bytes",
                "--max-conns",
                "--max-requests",
                "--idle-ms",
                "--max-inflight",
                "--inject-fault",
                "--inject-stall",
            ],
            &["--resume", "--no-ledger"],
        ),
        "call" => ("call", &["--socket", "--tcp", "--timeout-ms"], &[]),
        "soak" => (
            "soak",
            &[
                "--socket",
                "--tcp",
                "--timeout-ms",
                "--mode",
                "--seed",
                "--clients",
                "--duration-ms",
                "--count",
                "--inst",
                "--pin",
                "--journal",
            ],
            &[],
        ),
        _ => return None,
    };
    Some(Spec {
        command,
        values,
        flags,
    })
}

impl Args {
    /// Parses a raw argument vector against the option set of its
    /// subcommand (`raw[0]`, also positional 0).
    ///
    /// # Errors
    ///
    /// Returns a usage message for an option outside `spec`, an option
    /// given more than once, a value option without its value, and a
    /// flag given a `=value`.
    pub fn parse(raw: Vec<String>, spec: Spec) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = raw.into_iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                out.positionals.push(a);
                continue;
            }
            let (name, inline) = match a.split_once('=') {
                Some((k, v)) => (k.to_owned(), Some(v.to_owned())),
                None => (a, None),
            };
            if out.flag(&name) || out.value(&name).is_some() {
                return Err(format!("option `{name}` given more than once"));
            }
            if spec.values.contains(&name.as_str()) {
                let Some(v) = inline.or_else(|| it.next()) else {
                    return Err(format!("{name} requires a value"));
                };
                out.values.push((name, v));
            } else if spec.flags.contains(&name.as_str()) {
                if inline.is_some() {
                    return Err(format!("{name} takes no value"));
                }
                out.flags.push(name);
            } else {
                return Err(format!(
                    "unknown option `{name}` for `pao {}`",
                    spec.command
                ));
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    ///
    /// # Errors
    ///
    /// Returns a usage message when missing.
    pub fn positional(&self, i: usize) -> Result<&str, String> {
        self.positionals
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing argument #{}", i + 1))
    }

    /// `true` when `--name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of `--name value` or `--name=value`.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_parse(s: &str) -> Result<Args, String> {
        let raw: Vec<String> = s.split_whitespace().map(str::to_owned).collect();
        let command = spec(&raw[0]).expect("known subcommand");
        Args::parse(raw, command)
    }

    fn parse(s: &str) -> Args {
        try_parse(s).unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let a = parse("analyze tech.lef top.def --no-bca");
        assert_eq!(a.positional(0).unwrap(), "analyze");
        assert_eq!(a.positional(1).unwrap(), "tech.lef");
        assert_eq!(a.positional(2).unwrap(), "top.def");
        assert!(a.flag("--no-bca"));
        assert!(!a.flag("--metrics"));
        assert!(a.positional(3).is_err());
    }

    #[test]
    fn unknown_options_are_rejected() {
        let e = try_parse("analyze x y --select-memo").unwrap_err();
        assert!(e.contains("unknown option `--select-memo`"), "{e}");
        assert!(try_parse("analyze x y --bogus=1").is_err());
        assert!(try_parse("analyze x y --threads=2 --no-bca").is_ok());
        assert!(spec("frobnicate").is_none());
    }

    #[test]
    fn options_are_per_subcommand() {
        // `--lef`/`--def` belong to `gen`; `profile` takes a LEF/DEF pair
        // as positionals and must not silently fall back to a built-in
        // case.
        let e = try_parse("profile --lef x.lef --def y.def").unwrap_err();
        assert!(
            e.contains("unknown option `--lef` for `pao profile`"),
            "{e}"
        );
        assert!(try_parse("gen smoke --lef x.lef --def y.def").is_ok());
        assert!(try_parse("route x y --threads 2").is_err());
        assert!(try_parse("serve x y --socket s --no-ledger").is_ok());
        assert!(try_parse("analyze x y --no-ledger").is_err());
    }

    #[test]
    fn repeated_option_is_rejected() {
        let e = try_parse("analyze x y --threads 1 --threads 2").unwrap_err();
        assert!(e.contains("`--threads` given more than once"), "{e}");
        assert!(try_parse("analyze x y --threads=1 --threads 2").is_err());
        assert!(try_parse("analyze x y --no-bca --no-bca").is_err());
    }

    #[test]
    fn values_space_and_equals() {
        let a = parse("analyze x y --threads 4 --report=out.txt");
        assert_eq!(a.value("--threads"), Some("4"));
        assert_eq!(a.value("--report"), Some("out.txt"));
        assert_eq!(a.value("--k"), None);
        let b = parse("bench --case ispd18s_test2 --out bench.json");
        assert_eq!(b.value("--case"), Some("ispd18s_test2"));
        assert!(b.positional(1).is_err());
    }

    #[test]
    fn ledger_command_value_opts() {
        let a = parse("explain x y --pin u42/A");
        assert_eq!(a.value("--pin"), Some("u42/A"));
        let b = parse("report x y --top 5 --heatmap h.svg");
        assert_eq!(b.value("--top"), Some("5"));
        assert_eq!(b.value("--heatmap"), Some("h.svg"));
    }

    #[test]
    fn svg_spec_keeps_colon() {
        let a = parse("analyze x y --svg u42:cell.svg");
        assert_eq!(a.value("--svg"), Some("u42:cell.svg"));
    }

    #[test]
    fn missing_value_and_valued_flag_are_rejected() {
        let e = try_parse("gen smoke --lef").unwrap_err();
        assert!(e.contains("--lef requires a value"), "{e}");
        assert_eq!(
            parse("gen smoke --lef out.lef").value("--lef"),
            Some("out.lef")
        );
        let e = try_parse("analyze x y --no-bca=1").unwrap_err();
        assert!(e.contains("--no-bca takes no value"), "{e}");
    }
}
