//! Minimal dependency-free argument parsing for the `cordoba` CLI: each
//! command line is checked against the flags, valued options and
//! positional count its verb declares.

use std::fmt;
use std::str::FromStr;

/// Valued options every verb accepts besides its own.
pub(crate) const GLOBAL_OPTIONS: [&str; 3] = ["threads", "trace-out", "profile-out"];
/// Flags every verb accepts besides its own.
pub(crate) const GLOBAL_FLAGS: [&str; 2] = ["metrics", "help"];

/// A parsed argument list, borrowing its values from the raw tokens.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args<'a> {
    positional: Vec<&'a str>,
    options: Vec<(&'static str, &'a str)>,
    flags: Vec<&'static str>,
}

/// Errors produced while parsing or validating CLI arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given without a value where one is required.
    MissingValue(String),
    /// A value failed to parse into its expected type.
    InvalidValue {
        /// Option name.
        key: String,
        /// The raw value.
        value: String,
        /// Expected type description.
        expected: &'static str,
    },
    /// An option the command does not understand.
    UnknownOption(String),
    /// A positional argument beyond the ones the command takes.
    UnexpectedArgument(String),
    /// A required positional/option was absent.
    Missing(&'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingValue(k) => write!(f, "option --{k} requires a value"),
            Self::InvalidValue {
                key,
                value,
                expected,
            } => write!(f, "option --{key}: expected {expected}, got `{value}`"),
            Self::UnknownOption(k) => write!(f, "unknown option --{k}"),
            Self::UnexpectedArgument(a) => write!(f, "unexpected argument `{a}`"),
            Self::Missing(what) => write!(f, "missing required {what}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The declared name equal to `name` in `lists`, if any.
fn declared(name: &str, lists: [&[&'static str]; 2]) -> Option<&'static str> {
    lists.into_iter().flatten().copied().find(|&d| d == name)
}

impl<'a> Args<'a> {
    /// Parses raw arguments (without the program and verb names) given
    /// the verb's `flags` and valued `options`, beside the global ones. A
    /// valued option takes `--key=value` or the next token unless that is
    /// another `--name`; a flag takes no value.
    ///
    /// # Errors
    ///
    /// An undeclared name, a valued option without a value, `--flag=value`
    /// or more than `positionals` positional arguments.
    pub fn parse(
        raw: &'a [String],
        flags: &[&'static str],
        options: &[&'static str],
        positionals: usize,
    ) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut tokens = raw.iter();
        while let Some(tok) = tokens.next() {
            let Some(stripped) = tok.strip_prefix("--") else {
                if args.positional.len() == positionals {
                    return Err(ArgError::UnexpectedArgument(tok.clone()));
                }
                args.positional.push(tok);
                continue;
            };
            let (name, inline) = stripped
                .split_once('=')
                .map_or((stripped, None), |(k, v)| (k, Some(v)));
            if let Some(flag) = declared(name, [flags, &GLOBAL_FLAGS]) {
                if let Some(value) = inline {
                    return Err(ArgError::InvalidValue {
                        key: flag.to_owned(),
                        value: value.to_owned(),
                        expected: "no value (it is a flag)",
                    });
                }
                args.flags.push(flag);
            } else if let Some(option) = declared(name, [options, &GLOBAL_OPTIONS]) {
                let value = match inline {
                    Some(v) => v,
                    None => tokens
                        .next()
                        .filter(|next| !next.starts_with("--"))
                        .ok_or_else(|| ArgError::MissingValue(option.to_owned()))?,
                };
                args.options.push((option, value));
            } else {
                return Err(ArgError::UnknownOption(name.to_owned()));
            }
        }
        Ok(args)
    }

    /// The positional arguments.
    #[must_use]
    pub fn positional(&self) -> &[&'a str] {
        &self.positional
    }

    /// Whether the flag `--name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    /// String value of `--name`, if present (the last one given wins).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// The value of `--name` parsed as `T`, if given.
    ///
    /// # Errors
    ///
    /// [`ArgError::InvalidValue`], expecting `what`, when it does not parse.
    pub fn get_as<T: FromStr>(
        &self,
        name: &str,
        what: &'static str,
    ) -> Result<Option<T>, ArgError> {
        let parse = |v: &str| {
            v.parse().map_err(|_| ArgError::InvalidValue {
                key: name.to_owned(),
                value: v.to_owned(),
                expected: what,
            })
        };
        self.get(name).map(parse).transpose()
    }

    /// `f64` value of `--name`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::InvalidValue`] when the value does not parse.
    pub fn get_f64(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        Ok(self.get_as(name, "a number")?.unwrap_or(default))
    }

    /// `u32` value of `--name`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::InvalidValue`] when the value does not parse.
    pub fn get_u32(&self, name: &str, default: u32) -> Result<u32, ArgError> {
        Ok(self.get_as(name, "an integer")?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    const FLAGS: &[&str] = &["verbose"];
    const OPTIONS: &[&str] = &["tasks", "grid", "cores"];

    fn parse(raw: &[String]) -> Result<Args<'_>, ArgError> {
        Args::parse(raw, FLAGS, OPTIONS, 1)
    }

    #[test]
    fn parses_positionals_options_and_flags() {
        let raw = tokens("task --tasks 1e8 --grid=solar --verbose --threads 2");
        let a = parse(&raw).unwrap();
        assert_eq!(a.positional(), ["task"]);
        assert_eq!(a.get("tasks"), Some("1e8"));
        assert_eq!(a.get("grid"), Some("solar"));
        assert_eq!(a.get("threads"), Some("2"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("metrics"));
    }

    #[test]
    fn typed_accessors() {
        let raw = tokens("--tasks 1e8 --cores 6");
        let a = parse(&raw).unwrap();
        assert_eq!(a.get_f64("tasks", 0.0).unwrap(), 1e8);
        assert_eq!(a.get_u32("cores", 0).unwrap(), 6);
        assert_eq!(a.get_f64("grid", 7.0).unwrap(), 7.0);
        assert_eq!(a.get_u32("grid", 9).unwrap(), 9);
    }

    #[test]
    fn invalid_values_error() {
        let raw = tokens("--tasks banana");
        let err = parse(&raw).unwrap().get_f64("tasks", 0.0).unwrap_err();
        assert!(matches!(err, ArgError::InvalidValue { .. }));
        assert!(err.to_string().contains("banana"));
    }

    #[test]
    fn unknown_option_detection() {
        let raw = tokens("--tasks 1 --bogus 2");
        assert_eq!(
            parse(&raw).unwrap_err(),
            ArgError::UnknownOption("bogus".to_owned())
        );
        let raw = tokens("--quiet");
        assert!(matches!(
            Args::parse(&raw, &[], &[], 0),
            Err(ArgError::UnknownOption(k)) if k == "quiet"
        ));
    }

    #[test]
    fn option_followed_by_option_is_a_flag() {
        let raw = tokens("--verbose --tasks 3");
        let a = parse(&raw).unwrap();
        assert!(a.flag("verbose"));
        assert_eq!(a.get("tasks"), Some("3"));
    }

    #[test]
    fn a_valued_option_needs_its_value() {
        for raw in ["--tasks", "--tasks --verbose", "--grid --tasks 3"] {
            let raw = tokens(raw);
            assert!(
                matches!(parse(&raw), Err(ArgError::MissingValue(_))),
                "{raw:?}"
            );
        }
        // `--key=` is an explicit empty value, not a missing one.
        let raw = tokens("--grid=");
        assert_eq!(parse(&raw).unwrap().get("grid"), Some(""));
    }

    #[test]
    fn the_last_repeated_option_wins() {
        let raw = tokens("--grid coal --grid=solar");
        assert_eq!(parse(&raw).unwrap().get("grid"), Some("solar"));
    }

    #[test]
    fn error_display() {
        assert!(ArgError::MissingValue("x".into())
            .to_string()
            .contains("--x requires a value"));
        assert!(ArgError::Missing("task name")
            .to_string()
            .contains("task name"));
    }
}
