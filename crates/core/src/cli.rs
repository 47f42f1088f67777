//! Minimal flag parsing shared by the `wmlp-serve`, `wmlp-loadgen` and
//! `simulate` binaries (kept dependency-free on purpose).

/// The value following `name` in `args`, if present.
pub fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// The value following `name`, parsed; `default` when the flag is absent.
/// A value that is missing or does not parse is an `Err` naming the flag
/// — a typo must not silently run a different experiment, so every
/// binary maps it to its exit-2 `fail`.
pub fn flag_parse<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} {v}: not a valid value")),
        None if switch(args, name) => Err(format!("{name}: missing value")),
        None => Ok(default),
    }
}

/// Is the bare switch `name` present?
pub fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn flag_returns_following_value() {
        let a = args(&["--k", "16", "--alg", "lru"]);
        assert_eq!(flag(&a, "--k"), Some("16"));
        assert_eq!(flag(&a, "--alg"), Some("lru"));
        assert_eq!(flag(&a, "--missing"), None);
    }

    #[test]
    fn trailing_flag_without_value_is_none() {
        let a = args(&["--k"]);
        assert_eq!(flag(&a, "--k"), None);
    }

    #[test]
    fn flag_parse_defaults_only_when_absent() {
        let a = args(&["--k", "sixteen", "--n", "32", "--seed"]);
        assert_eq!(flag_parse(&a, "--n", 7usize), Ok(32));
        assert_eq!(flag_parse(&a, "--absent", 1.5f64), Ok(1.5));
        let garbage = flag_parse(&a, "--k", 7usize).unwrap_err();
        assert!(garbage.contains("--k sixteen"), "{garbage}");
        let missing = flag_parse(&a, "--seed", 0u64).unwrap_err();
        assert!(missing.contains("--seed"), "{missing}");
    }

    #[test]
    fn switch_detection() {
        let a = args(&["run", "--opt"]);
        assert!(switch(&a, "--opt"));
        assert!(!switch(&a, "--verbose"));
    }
}
