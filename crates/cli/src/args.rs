//! A small dependency-free `--flag value` argument parser.
//!
//! The workspace policy is to keep runtime dependencies minimal (see
//! DESIGN.md §6), so instead of a full CLI framework this module parses
//! the only grammar the tool needs: a subcommand followed by `--key value`
//! pairs and `--switch` booleans.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus its options.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// A parse failure with a user-facing message.
#[derive(Debug)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl Args {
    /// Parses an argument list (without the program name).
    ///
    /// `known_switches` lists flags that take no value; every other
    /// `--key` consumes the next token as its value.
    pub fn parse(argv: &[String], known_switches: &[&str]) -> Result<Self, ParseError> {
        let mut it = argv.iter();
        let command = it
            .next()
            .cloned()
            .ok_or_else(|| ParseError("missing subcommand; try `help`".into()))?;
        if command.starts_with("--") {
            return Err(ParseError(format!("expected a subcommand before {command}; try `help`")));
        }
        let mut options = BTreeMap::new();
        let mut switches = Vec::new();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ParseError(format!("unexpected positional argument {tok}")));
            };
            if known_switches.contains(&key) {
                switches.push(key.to_string());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| ParseError(format!("option --{key} expects a value")))?;
                if options.insert(key.to_string(), value.clone()).is_some() {
                    return Err(ParseError(format!("option --{key} given twice")));
                }
            }
        }
        Ok(Self { command, options, switches })
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error naming the flag when the value does not parse.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                v.parse().map_err(|_| ParseError(format!("option --{key}: cannot parse `{v}`")))
            }
        }
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Fails on the first option or switch not in `known`, naming it: a
    /// flag the subcommand does not read would otherwise be ignored
    /// without a word.
    pub fn only(&self, known: &[&str]) -> Result<(), ParseError> {
        match self.options.keys().chain(&self.switches).find(|k| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some(key) => Err(ParseError(format!("`{}` does not take --{key}", self.command))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn parses_command_and_options() {
        let a =
            Args::parse(&argv(&["generate", "--dataset", "mnist", "--seeds", "50"]), &[]).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.get("dataset"), Some("mnist"));
        assert_eq!(a.get_num::<usize>("seeds", 0).unwrap(), 50);
        assert_eq!(a.get_num::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn parses_switches() {
        let a = Args::parse(&argv(&["train", "--full", "--dataset", "pdf"]), &["full"]).unwrap();
        assert!(a.has("full"));
        assert_eq!(a.get("dataset"), Some("pdf"));
    }

    #[test]
    fn rejects_missing_value() {
        assert!(Args::parse(&argv(&["generate", "--dataset"]), &[]).is_err());
    }

    #[test]
    fn rejects_duplicate_option() {
        assert!(Args::parse(&argv(&["g", "--a", "1", "--a", "2"]), &[]).is_err());
    }

    #[test]
    fn rejects_positional_after_command() {
        assert!(Args::parse(&argv(&["generate", "mnist"]), &[]).is_err());
    }

    #[test]
    fn rejects_bad_number() {
        let a = Args::parse(&argv(&["g", "--seeds", "many"]), &[]).unwrap();
        assert!(a.get_num::<usize>("seeds", 0).is_err());
    }

    #[test]
    fn only_names_the_first_unknown_flag() {
        let a = Args::parse(&argv(&["serve", "--full", "--spot-check-rate", "0.5"]), &["full"]);
        let a = a.unwrap();
        assert!(a.only(&["full", "spot-check-rate"]).is_ok());
        let err = a.only(&["full"]).unwrap_err().to_string();
        assert_eq!(err, "`serve` does not take --spot-check-rate");
        assert!(a.only(&["spot-check-rate"]).is_err(), "a switch is a flag too");
    }

    #[test]
    fn rejects_empty() {
        assert!(Args::parse(&[], &[]).is_err());
    }
}
