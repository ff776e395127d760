//! A small, dependency-free command-line argument parser.
//!
//! Supports `--flag value`, `--flag=value`, boolean `--flag`, and
//! positional arguments. Unknown flags are an error (they usually mean
//! a typo in an experiment script), and every accepted flag is declared
//! up front so `--help` can be generated from the same table.

use std::collections::HashMap;
use std::fmt;

/// Declaration of one accepted flag, built by [`FlagSpec::switch`],
/// [`FlagSpec::value`], [`FlagSpec::with_default`] or
/// [`FlagSpec::optional`].
#[derive(Clone, Debug)]
pub struct FlagSpec {
    /// Name without the leading dashes (e.g. `"seed"`).
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    kind: Kind,
}

#[derive(Clone, Debug)]
enum Kind {
    Switch,
    /// Absence reads as `None`; `--help` prints what it means, if said.
    Value(Option<&'static str>),
    /// The one place the default is written: `--help` prints this
    /// string and an absent flag parses it.
    Default(String),
}

impl FlagSpec {
    fn new(name: &'static str, help: &'static str, kind: Kind) -> Self {
        FlagSpec { name, help, kind }
    }

    /// A boolean flag that takes no value.
    pub fn switch(name: &'static str, help: &'static str) -> Self {
        Self::new(name, help, Kind::Switch)
    }

    /// A flag whose absence means nothing was asked for.
    pub fn value(name: &'static str, help: &'static str) -> Self {
        Self::new(name, help, Kind::Value(None))
    }

    /// A flag with a default, rendered from the library struct that
    /// owns it where there is one.
    pub fn with_default(name: &'static str, default: impl ToString, help: &'static str) -> Self {
        Self::new(name, help, Kind::Default(default.to_string()))
    }

    /// A [`FlagSpec::value`] flag whose absence has a meaning worth
    /// printing (`unlimited`, `all cores`, `the --seed value`).
    pub fn optional(name: &'static str, absent: &'static str, help: &'static str) -> Self {
        Self::new(name, help, Kind::Value(Some(absent)))
    }
}

/// Parse error with a user-facing message.
#[derive(Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed arguments: flag values plus positionals.
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    /// What the user gave (a switch holds an empty string).
    values: HashMap<&'static str, String>,
    /// The table's [`FlagSpec::with_default`] strings.
    defaults: HashMap<&'static str, String>,
    /// Positional arguments in order.
    pub positionals: Vec<String>,
}

fn parse_as<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, ArgError> {
    raw.parse()
        .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}")))
}

/// `raw` as a float that is neither NaN nor ±inf — every range check
/// downstream is written `x <= 0.0` or `x < 0.0`, which NaN passes.
pub fn finite_f64(raw: &str) -> Option<f64> {
    raw.parse().ok().filter(|x: &f64| x.is_finite())
}

fn finite(name: &str, raw: &str) -> Result<f64, ArgError> {
    parse_as::<f64>(name, raw)?;
    finite_f64(raw)
        .ok_or_else(|| ArgError(format!("--{name}: expected a finite number, got {raw:?}")))
}

impl ParsedArgs {
    /// Raw string value of a flag, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether a boolean flag was given.
    pub fn get_bool(&self, name: &str) -> bool {
        self.is_given(name)
    }

    /// Whether the user supplied this flag at all (value or boolean).
    /// Used to reject flags that contradict each other — e.g. machine
    /// and policy flags alongside `serve --resume`, whose snapshot
    /// already carries both.
    pub fn is_given(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The flags among `names` the user supplied, as `--name`, for a
    /// conflict diagnostic.
    pub fn given_among(&self, names: &[&str]) -> Vec<String> {
        names
            .iter()
            .filter(|name| self.is_given(name))
            .map(|name| format!("--{name}"))
            .collect()
    }

    /// What the user gave, else the table's [`FlagSpec::with_default`]
    /// string. Panics when the entry declares none: a bug in the caller.
    pub fn get_or_default(&self, name: &str) -> &str {
        self.get(name)
            .or_else(|| self.defaults.get(name).map(String::as_str))
            .unwrap_or_else(|| panic!("--{name} is read as if it had a default; it declares none"))
    }

    /// Typed value of a flag with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        parse_as(name, self.get_or_default(name))
    }

    /// Typed optional value.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        self.get(name).map(|raw| parse_as(name, raw)).transpose()
    }

    /// [`ParsedArgs::get_parsed`] for a float: refuses NaN and ±inf.
    pub fn get_f64(&self, name: &str) -> Result<f64, ArgError> {
        finite(name, self.get_or_default(name))
    }

    /// [`ParsedArgs::get_opt`] for a float: refuses NaN and ±inf.
    pub fn get_opt_f64(&self, name: &str) -> Result<Option<f64>, ArgError> {
        self.get(name).map(|raw| finite(name, raw)).transpose()
    }

    /// Comma-separated list of typed values (e.g. `--bf 1,0.5,0`).
    pub fn get_list<T: std::str::FromStr>(&self, name: &str) -> Result<Vec<T>, ArgError> {
        self.get_or_default(name)
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse()
                    .map_err(|_| ArgError(format!("--{name}: cannot parse {tok:?}")))
            })
            .collect()
    }
}

/// Parse `args` (without the program/subcommand prefix) against `specs`.
pub fn parse(args: &[String], specs: &[FlagSpec]) -> Result<ParsedArgs, ArgError> {
    let spec_of = |name: &str| specs.iter().find(|s| s.name == name);
    let mut parsed = ParsedArgs::default();
    for spec in specs {
        if let Kind::Default(default) = &spec.kind {
            parsed.defaults.insert(spec.name, default.clone());
        }
    }
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(stripped) = arg.strip_prefix("--") {
            let (name, inline_value) = match stripped.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (stripped, None),
            };
            let spec = spec_of(name)
                .ok_or_else(|| ArgError(format!("unknown flag --{name} (try --help)")))?;
            let value = match (&spec.kind, inline_value) {
                (Kind::Switch, Some(_)) => {
                    return Err(ArgError(format!("--{name} takes no value")))
                }
                (Kind::Switch, None) => String::new(),
                (_, Some(v)) => v,
                (_, None) => {
                    i += 1;
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| ArgError(format!("--{name} needs a value")))?
                }
            };
            parsed.values.insert(spec.name, value);
            i += 1;
        } else {
            parsed.positionals.push(arg.clone());
            i += 1;
        }
    }
    Ok(parsed)
}

/// Render a help block for a flag table.
pub fn render_flags(specs: &[FlagSpec]) -> String {
    let mut out = String::new();
    for s in specs {
        let (lhs, default) = match &s.kind {
            Kind::Switch => (format!("--{}", s.name), None),
            Kind::Value(absent) => (format!("--{} <value>", s.name), *absent),
            Kind::Default(d) => (format!("--{} <value>", s.name), Some(d.as_str())),
        };
        let default = default
            .map(|d| format!(" [default: {d}]"))
            .unwrap_or_default();
        out.push_str(&format!("  {lhs:<24} {}{}\n", s.help, default));
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn specs() -> Vec<FlagSpec> {
        vec![
            FlagSpec::with_default("seed", 42, "rng seed"),
            FlagSpec::switch("fast", "quick run"),
            FlagSpec::with_default("bf", "9", "balance factors"),
            FlagSpec::optional("depth", "unlimited", "backfill depth"),
            FlagSpec::value("out", "output path"),
        ]
    }

    pub(crate) fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_values_and_bools() {
        let p = parse(&argv(&["--seed", "7", "--fast", "trace.swf"]), &specs()).unwrap();
        assert_eq!(p.get("seed"), Some("7"));
        assert!(p.get_bool("fast"));
        assert_eq!(p.positionals, vec!["trace.swf"]);
    }

    #[test]
    fn equals_syntax() {
        let p = parse(&argv(&["--seed=9"]), &specs()).unwrap();
        assert_eq!(p.get_parsed::<u64>("seed").unwrap(), 9);
    }

    #[test]
    fn typed_defaults_and_errors() {
        let p = parse(&argv(&[]), &specs()).unwrap();
        assert_eq!(p.get_parsed::<u64>("seed").unwrap(), 42);
        // A default is not "given": conflict checks see only the user.
        assert_eq!(p.get_opt::<u64>("seed").unwrap(), None);
        assert!(!p.is_given("seed") && p.given_among(&["seed", "fast"]).is_empty());
        assert_eq!(p.get_opt::<usize>("depth").unwrap(), None);
        let p = parse(&argv(&["--seed", "x", "--fast"]), &specs()).unwrap();
        assert!(p.get_parsed::<u64>("seed").is_err());
        assert_eq!(
            p.given_among(&["fast", "out", "seed"]),
            ["--fast", "--seed"]
        );
    }

    #[test]
    #[should_panic(expected = "--depth is read as if it had a default")]
    fn reading_a_default_the_table_does_not_declare_is_a_bug() {
        let _ = parse(&[], &specs()).unwrap().get_parsed::<usize>("depth");
    }

    #[test]
    fn floats_must_be_finite() {
        let p = parse(&argv(&["--bf", "inf", "--depth", "nan"]), &specs()).unwrap();
        let err = p.get_f64("bf").unwrap_err();
        assert_eq!(err.0, "--bf: expected a finite number, got \"inf\"");
        assert!(p.get_opt_f64("depth").is_err() && p.get_opt_f64("out") == Ok(None));
        assert_eq!(parse(&[], &specs()).unwrap().get_f64("bf"), Ok(9.0));
    }

    #[test]
    fn lists() {
        let p = parse(&argv(&["--bf", "1,0.5, 0"]), &specs()).unwrap();
        assert_eq!(p.get_list::<f64>("bf").unwrap(), vec![1.0, 0.5, 0.0]);
        let p = parse(&argv(&[]), &specs()).unwrap();
        assert_eq!(p.get_list::<f64>("bf").unwrap(), vec![9.0]);
    }

    #[test]
    fn rejects_unknown_and_malformed() {
        assert!(parse(&argv(&["--nope"]), &specs())
            .unwrap_err()
            .0
            .contains("unknown"));
        assert!(parse(&argv(&["--seed"]), &specs())
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(parse(&argv(&["--fast=yes"]), &specs())
            .unwrap_err()
            .0
            .contains("takes no value"));
    }

    #[test]
    fn help_rendering_mentions_defaults() {
        let help = render_flags(&specs());
        assert!(help.contains("--seed <value>"));
        assert!(help.contains("[default: 42]"));
        assert!(help.contains("--fast "));
        assert!(help.contains("backfill depth [default: unlimited]"));
        assert!(help.contains("output path\n"));
    }
}
