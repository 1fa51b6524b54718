//! The static-analysis gate: runs `nsg-lint` over the entire workspace
//! checkout, so `cargo test` *is* the R1–R8 invariant check. CI's dedicated
//! `lint-gate` step runs the same engine through the binary; they can never
//! disagree.

use std::path::Path;

/// Ceiling on `lint:allow` suppressions. Growth past this means the rules no
/// longer describe the codebase and need a re-anchor, not more escapes.
const MAX_ALLOWS: usize = 15;

#[test]
fn workspace_has_zero_lint_violations() {
    // CARGO_MANIFEST_DIR of the umbrella crate is the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = nsg_lint::lint_workspace(root).expect("workspace walk succeeds");
    assert!(report.files_scanned > 50, "gate walked only {} files — wrong root?", report.files_scanned);

    for f in &report.findings {
        eprintln!("{f}");
    }
    assert!(
        report.findings.is_empty(),
        "{} lint violation(s) — run `cargo run -p nsg-lint -- --workspace` for details",
        report.findings.len()
    );

    for (path, allow) in &report.allows {
        assert!(
            !allow.reason.is_empty(),
            "{path}:{}: lint:allow without a reason",
            allow.comment_line
        );
    }
    assert!(
        report.allows.len() <= MAX_ALLOWS,
        "{} suppressions exceed the budget of {MAX_ALLOWS} — fix violations instead of allowing them",
        report.allows.len()
    );
}
