//! Shared scaffolding of the `rfl-server` / `rfl-client` binaries: a tiny
//! dependency-free flag parser. The actual protocol lives in
//! `rfl_core::comm` — these binaries only wire the canonical pinned round
//! loop ([`rfl_core::canonical`]) to a socket endpoint.

/// Value of `--name <value>` in `args`, if present.
pub fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parsed value of `--name <value>`; exits with a usage error on garbage.
pub fn arg_parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    match arg_value(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} wants a {}", std::any::type_name::<T>());
            std::process::exit(2);
        }),
        None => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_and_values_parse() {
        let a = args(&["prog", "--id", "3", "--quick"]);
        assert_eq!(arg_value(&a, "--id").as_deref(), Some("3"));
        assert_eq!(arg_parse(&a, "--id", 0usize), 3);
        assert_eq!(arg_parse(&a, "--rounds", 2usize), 2);
    }
}
