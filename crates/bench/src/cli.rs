//! The one command-line parser of the bench binaries.
//!
//! Each binary declares a [`Spec`]: its usage text, the switches and valued
//! options it takes, and how many positional arguments. [`Spec::parse`]
//! reads the process arguments against it. Anything the spec does not
//! declare (an unknown flag, an option with no value, a flag given twice, a
//! stray positional) ends the process with exit status 2 and the usage
//! text, and so does a value that does not parse as the type the binary
//! asks for, down to one bad element of a comma list. A typo therefore
//! never runs a different measurement with a default in its place.
//!
//! ```no_run
//! use omp4rs_bench::cli::Spec;
//!
//! const SPEC: Spec = Spec {
//!     usage: "usage: figure7 [--scale <f64>] [--chunk <u64>] [--profile]",
//!     switches: &["--profile"],
//!     options: &["--scale", "--chunk"],
//!     positional: 0..=0,
//! };
//!
//! let args = SPEC.parse();
//! let profile = args.profile("figure7");
//! let chunk: u64 = args.get("--chunk", 300);
//! // ... run the figure ...
//! profile.finish();
//! ```

use std::ops::RangeInclusive;
use std::str::FromStr;

use crate::profile::{self, Profile};

/// What a binary accepts on its command line.
pub struct Spec {
    /// Printed to stderr after the error on a bad command line.
    pub usage: &'static str,
    /// Flags that take no value (`--check`, `--profile`).
    pub switches: &'static [&'static str],
    /// Flags followed by one value (`--trials 5`, `--threads 1,2,4`).
    pub options: &'static [&'static str],
    /// How many positional (not `--`-prefixed) arguments the binary takes.
    pub positional: RangeInclusive<usize>,
}

/// A command line that matched its [`Spec`].
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    /// Each flag given, with its value for an option.
    flags: Vec<(&'static str, Option<String>)>,
    positional: Vec<String>,
}

impl Spec {
    /// Parse the process arguments; exit 2 with the usage on a bad one.
    pub fn parse(&self) -> Args {
        self.try_parse(std::env::args().skip(1))
            .unwrap_or_else(|e| fail(self.usage, &e))
    }

    /// Parse `argv` (without the program name) against this spec.
    pub(crate) fn try_parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            usage: self.usage,
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg);
                continue;
            }
            let entry = if let Some(&flag) = self.switches.iter().find(|&&s| s == arg) {
                (flag, None)
            } else if let Some(&flag) = self.options.iter().find(|&&o| o == arg) {
                match argv.next() {
                    Some(value) if !value.starts_with("--") => (flag, Some(value)),
                    _ => return Err(format!("{flag} needs a value")),
                }
            } else {
                return Err(format!("unknown flag {arg}"));
            };
            if args.flags.iter().any(|(f, _)| *f == entry.0) {
                return Err(format!("{} given twice", entry.0));
            }
            args.flags.push(entry);
        }
        let (lo, hi) = (*self.positional.start(), *self.positional.end());
        if !self.positional.contains(&args.positional.len()) {
            let expected = if lo == hi {
                lo.to_string()
            } else {
                format!("{lo} to {hi}")
            };
            return Err(format!(
                "expected {expected} positional arguments, got {}",
                args.positional.len()
            ));
        }
        Ok(args)
    }
}

impl Args {
    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of option `flag`, or `default` when it is absent; exits 2
    /// when the value does not parse.
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.try_get(flag)
            .unwrap_or_else(|e| self.fail(&e))
            .unwrap_or(default)
    }

    /// The comma-separated values of option `flag`, or `default` when it is
    /// absent; exits 2 when any element does not parse.
    pub fn list<T: FromStr>(&self, flag: &str, default: Vec<T>) -> Vec<T> {
        self.try_list(flag)
            .unwrap_or_else(|e| self.fail(&e))
            .unwrap_or(default)
    }

    /// The value of option `flag`, if given and well-formed.
    pub(crate) fn try_get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag).map(|v| parse_value(flag, v)).transpose()
    }

    /// The comma-separated values of option `flag`, if given and every
    /// element is well-formed.
    pub(crate) fn try_list<T: FromStr>(&self, flag: &str) -> Result<Option<Vec<T>>, String> {
        self.value(flag)
            .map(|v| v.split(',').map(|e| parse_value(flag, e.trim())).collect())
            .transpose()
    }

    /// Arm the profiler if `--profile` was given (or `OMP_TOOL` armed it);
    /// see [`profile::begin`].
    pub fn profile(&self, label: &'static str) -> Profile {
        profile::begin(self.switch("--profile"), label)
    }

    /// Report a bad command line with the usage and exit 2.
    pub fn fail(&self, msg: &str) -> ! {
        fail(self.usage, msg)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| v.as_deref())
    }
}

fn parse_value<T: FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: malformed value '{text}'"))
}

fn fail(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec = Spec {
        usage: "usage: test",
        switches: &["--check", "--profile"],
        options: &["--trials", "--scale", "--clients"],
        positional: 0..=1,
    };

    fn parse(argv: &[&str]) -> Result<Args, String> {
        SPEC.try_parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_apply_when_absent() {
        let args = parse(&[]).unwrap();
        assert!(!args.switch("--check"));
        assert_eq!(args.get("--trials", 7usize), 7);
        assert_eq!(args.list("--clients", vec![1usize, 2]), vec![1, 2]);
        assert!(args.positional().is_empty());
    }

    #[test]
    fn typed_values_parse() {
        let args = parse(&[
            "--check",
            "--trials",
            "3",
            "--scale",
            "0.05",
            "--clients",
            "4, 8",
        ])
        .unwrap();
        assert!(args.switch("--check"));
        assert_eq!(args.get("--trials", 7usize), 3);
        assert_eq!(args.get("--scale", 1.0f64), 0.05);
        assert_eq!(args.list("--clients", vec![1usize]), vec![4, 8]);
        // A leading single dash is a value (main's PyOMP mode is `-1`).
        let args = parse(&["-1"]).unwrap();
        assert_eq!(args.positional(), ["-1"]);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse(&["--trails", "3"]).unwrap_err();
        assert!(err.contains("unknown flag --trails"), "{err}");
    }

    #[test]
    fn malformed_value_is_rejected() {
        let args = parse(&["--trials", "x"]).unwrap();
        let err = args.try_get::<usize>("--trials").unwrap_err();
        assert!(err.contains("malformed value 'x'"), "{err}");
    }

    #[test]
    fn missing_value_is_rejected() {
        let err = parse(&["--trials"]).unwrap_err();
        assert!(err.contains("--trials needs a value"), "{err}");
        let err = parse(&["--trials", "--check"]).unwrap_err();
        assert!(err.contains("--trials needs a value"), "{err}");
    }

    #[test]
    fn bad_list_element_is_rejected() {
        let args = parse(&["--clients", "4,x"]).unwrap();
        let err = args.try_list::<usize>("--clients").unwrap_err();
        assert!(err.contains("malformed value 'x'"), "{err}");
        let args = parse(&["--clients", "4,,8"]).unwrap();
        assert!(args.try_list::<usize>("--clients").is_err());
    }

    #[test]
    fn repeated_flags_and_stray_positionals_are_rejected() {
        assert!(parse(&["--check", "--check"]).is_err());
        assert!(parse(&["--trials", "1", "--trials", "2"]).is_err());
        assert!(parse(&["a", "b"]).is_err());
    }

    #[test]
    fn profile_is_stripped() {
        let args = parse(&["--profile", "only"]).unwrap();
        assert!(args.switch("--profile"));
        assert_eq!(args.positional(), ["only"]);
    }
}
