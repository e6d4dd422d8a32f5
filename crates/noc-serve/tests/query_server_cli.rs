//! `query_server` turns bad arguments and malformed environment variables
//! into one valid JSON error record on stdout and exit code 1: no panic, no
//! backtrace, no broken escape.

use std::process::Command;

/// Runs `query_server` with `args` and the environment variables `vars`,
/// and returns its exit code and the stdout lines carrying an error record.
fn run(args: &[&str], vars: &[(&str, &str)]) -> (Option<i32>, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_query_server"))
        .args(args)
        .env_remove("NOC_TELEMETRY")
        .env_remove("NOC_FAULT_SEED")
        .env_remove("NOC_FAULT_RATE")
        .envs(vars.iter().copied())
        .output()
        .expect("query_server starts");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let records = stdout
        .lines()
        .filter(|l| l.contains("noc-serve/error/v1"))
        .map(str::to_string)
        .collect();
    (out.status.code(), records)
}

/// Decodes the JSON string that starts at `s[0] == '"'`: its value and the
/// text after its closing quote, or `None` on an escape JSON does not
/// allow, a raw control character, or a missing closing quote.
fn json_string(s: &str) -> Option<(String, &str)> {
    let mut chars = s.strip_prefix('"')?.char_indices();
    let mut value = String::new();
    while let Some((at, c)) = chars.next() {
        match c {
            '"' => return Some((value, &s[at + 2..])),
            '\\' => match chars.next()?.1 {
                e @ ('"' | '\\' | '/') => value.push(e),
                'b' => value.push('\u{8}'),
                'f' => value.push('\u{c}'),
                'n' => value.push('\n'),
                'r' => value.push('\r'),
                't' => value.push('\t'),
                'u' => {
                    let hex = chars.as_str().get(..4)?;
                    value.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                    chars.nth(3);
                }
                _ => return None,
            },
            c if c < ' ' => return None,
            c => value.push(c),
        }
    }
    None
}

/// Asserts one error record, exit code 1, and returns the decoded
/// `error` field of the record.
fn error_detail(args: &[&str], vars: &[(&str, &str)]) -> String {
    let (code, records) = run(args, vars);
    assert_eq!(code, Some(1), "{args:?}: exit code");
    assert_eq!(records.len(), 1, "{args:?}: error records {records:?}");
    let line = &records[0];
    let body = line
        .strip_prefix(r#"{"schema": "noc-serve/error/v1", "error": "#)
        .unwrap_or_else(|| panic!("{args:?}: unexpected record {line}"));
    let (detail, rest) =
        json_string(body).unwrap_or_else(|| panic!("{args:?}: invalid JSON string in {line}"));
    assert_eq!(rest, "}", "{args:?}: trailing text in {line}");
    detail
}

#[test]
fn zero_threads_is_an_error_record() {
    let detail = error_detail(&["didactic", "8", "0"], &[]);
    assert!(detail.contains("threads"), "{detail}");
}

#[test]
fn quotes_and_backslashes_are_escaped() {
    let detail = error_detail(&[r#"x"y"#], &[]);
    assert!(detail.contains(r#""x\"y""#), "{detail}");
}

#[test]
fn nan_fault_rate_is_an_error_record() {
    let detail = error_detail(
        &["didactic", "8", "1"],
        &[("NOC_FAULT_SEED", "1"), ("NOC_FAULT_RATE", "nan")],
    );
    assert!(detail.contains("NOC_FAULT_RATE"), "{detail}");
}
