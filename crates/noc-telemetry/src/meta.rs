//! Run metadata shared by every JSON-emitting binary in the workspace.

use std::process::Command;

/// The commit a measurement run describes: `GITHUB_SHA` in CI, else `git
/// rev-parse HEAD` in a local checkout, with `-dirty` appended when a
/// tracked file differs from it (`git status --porcelain
/// --untracked-files=no`), and `"unknown"` elsewhere.
///
/// Shared by `bench_json` (for `BENCH_history.jsonl`) and `query_server`
/// (for the throughput record and `SERVE_metrics.json`) so their records
/// join on the same key.
pub fn git_commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    let head = git(&["rev-parse", "HEAD"]);
    let status = git(&["status", "--porcelain", "--untracked-files=no"]);
    commit_label(head.as_deref(), status.as_deref())
}

/// The label of a checkout whose `git rev-parse HEAD` printed `head` and
/// whose `git status --porcelain` printed `status` (`None` where git
/// failed): the hash, marked `-dirty` if the status lists any change.
fn commit_label(head: Option<&str>, status: Option<&str>) -> String {
    match head.map(str::trim).filter(|h| !h.is_empty()) {
        Some(head) if status.is_some_and(|s| !s.trim().is_empty()) => format!("{head}-dirty"),
        Some(head) => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// What `git args` printed, if it ran and succeeded.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    String::from_utf8(out.stdout).ok()
}

#[cfg(test)]
mod tests {
    use super::commit_label;

    #[test]
    fn git_commit_is_nonempty() {
        assert!(!super::git_commit().is_empty());
    }

    #[test]
    fn a_changed_tracked_file_marks_the_commit_dirty() {
        let head = Some("abc123\n");
        assert_eq!(commit_label(head, Some("")), "abc123");
        assert_eq!(commit_label(head, None), "abc123");
        assert_eq!(commit_label(head, Some(" M src/lib.rs\n")), "abc123-dirty");
        assert_eq!(commit_label(None, Some(" M src/lib.rs\n")), "unknown");
        assert_eq!(commit_label(Some(""), Some("")), "unknown");
    }
}
