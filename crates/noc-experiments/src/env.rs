//! The counts the experiment binaries read from `NOC_MPB_*` variables: a
//! malformed one is an error, so a typo never quietly runs the default.

/// `value`, the setting of the variable `name`, as a count of at least 1;
/// `default` when the variable is unset (`None`).
///
/// # Errors
///
/// A message naming `name` and `value` if `value` is not a whole number
/// of at least 1.
pub fn parse_count(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(v) = value else {
        return Ok(default);
    };
    match v.trim().parse::<usize>() {
        Ok(0) => Err(format!("invalid {name} {v:?}: must be at least 1")),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("invalid {name} {v:?}: {e}")),
    }
}

/// The count in the environment variable `name` ([`parse_count`]). On a
/// malformed value, prints the error and exits the process with status 2.
pub fn env_count(name: &str, default: usize) -> usize {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_count(name, value.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_takes_the_default() {
        assert_eq!(parse_count("NOC_MPB_SETS", None, 100), Ok(100));
    }

    #[test]
    fn a_whole_number_of_at_least_one_is_kept() {
        assert_eq!(parse_count("NOC_MPB_SETS", Some("7"), 100), Ok(7));
        assert_eq!(parse_count("NOC_MPB_SETS", Some(" 12 "), 100), Ok(12));
        assert_eq!(parse_count("NOC_MPB_THREADS", Some("1"), 4), Ok(1));
    }

    #[test]
    fn malformed_values_name_the_variable_and_value() {
        for bad in ["abc", "", "-3", "2.5", "10x"] {
            let err = parse_count("NOC_MPB_SETS", Some(bad), 100).unwrap_err();
            assert!(err.contains("NOC_MPB_SETS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn zero_is_an_error() {
        let err = parse_count("NOC_MPB_THREADS", Some("0"), 4).unwrap_err();
        assert_eq!(err, "invalid NOC_MPB_THREADS \"0\": must be at least 1");
    }
}
