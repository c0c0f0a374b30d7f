//! `--flag value` command lines, for both binaries.

/// Parsed `--flag value` pairs plus bare words, in order.
pub struct Args {
    flags: Vec<(String, String)>,
    /// The arguments that are neither a flag nor a flag's value.
    pub words: Vec<String>,
}

impl Args {
    /// Splits `argv` (without the program name). Every `--name` among
    /// `valued` takes the next argument as its value; the `switches` take
    /// none.
    ///
    /// # Errors
    ///
    /// A flag in neither list (a typo such as `--sed 7` must not run with
    /// the default seed), or a valued flag that is the last argument.
    pub fn parse(argv: &[String], valued: &[&str], switches: &[&str]) -> Result<Self, String> {
        let (mut flags, mut words) = (Vec::new(), Vec::new());
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => flags.push((name.into(), "1".into())),
                Some(name) if valued.contains(&name) => {
                    let value = it.next().ok_or(format!("option --{name} needs a value"))?;
                    flags.push((name.into(), value.clone()));
                }
                Some(name) => return Err(format!("unknown option --{name}")),
                None => words.push(arg.clone()),
            }
        }
        Ok(Self { flags, words })
    }

    /// The value of `--name` (the last one, when repeated).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The value of `--name`, which must be present.
    ///
    /// # Errors
    ///
    /// When the flag is missing.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or(format!("missing --{name} <value>"))
    }

    /// `--name`, which must be present, parsed as a `T`.
    ///
    /// # Errors
    ///
    /// When the flag is missing or its value does not parse.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.required(name)?;
        v.parse().map_err(|_| format!("option --{name}: cannot parse `{v}`"))
    }

    /// `--name` parsed as a `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// When the value does not parse.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        if self.get(name).is_some() {
            self.parsed(name)
        } else {
            Ok(default)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_words_and_switches() {
        let argv: Vec<String> = ["verify", "--limit", "5", "a", "--traced", "b", "--limit", "7"]
            .map(String::from)
            .into();
        let args = Args::parse(&argv, &["limit", "cache"], &["traced"]).unwrap();
        assert_eq!(args.words, ["verify", "a", "b"]);
        assert_eq!(args.get("limit"), Some("7"));
        assert_eq!(args.num("limit", 1usize), Ok(7));
        assert_eq!(args.num("absent", 1usize), Ok(1));
        assert!(args.get("traced").is_some());
        assert!(args.required("cache").is_err());
        assert_eq!(args.parsed::<usize>("limit"), Ok(7));
        assert!(args.parsed::<usize>("cache").is_err());
        assert!(args.num::<usize>("traced", 0).is_ok());
        assert!(Args::parse(&["--seed".to_string()], &["seed"], &[]).is_err());
        let typo = Args::parse(&["--sed".to_string(), "7".to_string()], &["seed"], &[]);
        assert_eq!(typo.err().as_deref(), Some("unknown option --sed"));
        let bad = Args::parse(&["--seed".to_string(), "x".to_string()], &["seed"], &[]).unwrap();
        assert!(bad.num("seed", 0u64).is_err());
    }
}
