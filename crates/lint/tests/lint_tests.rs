//! Fixture corpus, self-lint, and scratch-binary tests for d3t-lint.
//!
//! Fixtures live in `tests/fixtures/` (a directory the workspace walker
//! deliberately skips) and are linted under pretend workspace-relative
//! paths so scope rules apply as they would in the real tree.

use d3t_lint::{lint_source, run, Diagnostic, Options};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Lints a fixture as if it lived in deterministic core lib code.
fn lint_as_core(name: &str) -> Vec<Diagnostic> {
    lint_source(&format!("crates/core/src/{name}"), &fixture(name))
}

fn codes(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.code).collect()
}

fn assert_all(diags: &[Diagnostic], code: &str) {
    assert!(!diags.is_empty(), "expected at least one {code} diagnostic");
    for d in diags {
        assert_eq!(d.code, code, "unexpected diagnostic: {}", d.render());
    }
}

fn assert_clean(diags: &[Diagnostic]) {
    assert!(
        diags.is_empty(),
        "expected no diagnostics, got:\n{}",
        diags.iter().map(|d| d.render()).collect::<Vec<_>>().join("\n")
    );
}

#[test]
fn d001_fires_on_hash_collections_in_det_lib_code() {
    let diags = lint_as_core("d001_pos.rs");
    assert_all(&diags, "D001");
    // `use std::collections::HashMap;` — the ident starts at col 23.
    assert_eq!((diags[0].line, diags[0].col), (2, 23), "got {}", diags[0].render());
}

#[test]
fn d001_ignores_strings_comments_raw_strings_and_test_modules() {
    assert_clean(&lint_as_core("d001_neg.rs"));
}

#[test]
fn d001_is_scoped_to_det_crates() {
    // The same source outside the four deterministic crates is fine.
    assert_clean(&lint_source("crates/experiments/src/bin/scratch.rs", &fixture("d001_pos.rs")));
}

#[test]
fn d002_fires_even_in_test_code() {
    assert_all(&lint_as_core("d002_pos.rs"), "D002");
    assert_all(&lint_source("crates/core/tests/wall.rs", &fixture("d002_pos.rs")), "D002");
}

#[test]
fn d002_ignores_doc_and_string_mentions() {
    assert_clean(&lint_as_core("d002_neg.rs"));
}

#[test]
fn d003_fires_on_spawn_and_sync_primitives() {
    let diags = lint_as_core("d003_pos.rs");
    assert_all(&diags, "D003");
    assert!(diags.len() >= 3, "spawn + std::sync + Mutex should all fire: {:?}", codes(&diags));
}

#[test]
fn d003_ignores_lookalike_idents_and_mentions() {
    assert_clean(&lint_as_core("d003_neg.rs"));
}

#[test]
fn d004_fires_on_entropy_rng() {
    assert_all(&lint_as_core("d004_pos.rs"), "D004");
}

#[test]
fn d004_ignores_seeded_rng() {
    assert_clean(&lint_as_core("d004_neg.rs"));
}

#[test]
fn u001_fires_without_safety_comment() {
    let diags = lint_as_core("u001_pos.rs");
    assert_all(&diags, "U001");
    assert_eq!(diags.len(), 1);
}

#[test]
fn u001_accepts_safety_comment_with_intervening_attr() {
    assert_clean(&lint_as_core("u001_neg.rs"));
}

#[test]
fn p001_fires_on_unwrap_expect_panic_in_lib_code() {
    let diags = lint_as_core("p001_pos.rs");
    assert_all(&diags, "P001");
    assert_eq!(diags.len(), 3, "unwrap + expect + panic!: {:?}", codes(&diags));
}

#[test]
fn p001_ignores_strings_and_test_modules() {
    assert_clean(&lint_as_core("p001_neg.rs"));
}

#[test]
fn p001_is_scoped_to_lib_code() {
    assert_clean(&lint_source("crates/core/tests/scratch.rs", &fixture("p001_pos.rs")));
    assert_clean(&lint_source("crates/core/benches/scratch.rs", &fixture("p001_pos.rs")));
}

#[test]
fn f001_fires_on_partial_cmp_unwrap_sort_key() {
    assert_all(&lint_as_core("f001_pos.rs"), "F001");
}

#[test]
fn f001_ignores_total_cmp_and_matched_partial_cmp() {
    assert_clean(&lint_as_core("f001_neg.rs"));
}

#[test]
fn pragma_with_reason_suppresses_next_line() {
    assert_clean(&lint_as_core("pragma_ok.rs"));
}

#[test]
fn malformed_pragma_fires_l001_and_does_not_suppress() {
    let diags = lint_as_core("pragma_l001.rs");
    let mut got = codes(&diags);
    got.sort_unstable();
    assert_eq!(got, ["L001", "L001", "P001"], "{:?}", diags);
}

#[test]
fn stale_allowlist_entry_fires_l002() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let allow = dir.join("stale_allow.txt");
    std::fs::write(&allow, "D001 crates/net/src/nonexistent.rs -- stale reason\n").unwrap();
    let fix = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/d001_neg.rs");
    let report =
        run(&Options { root: PathBuf::from("/"), files: Some(vec![fix]), allowlist: Some(allow) })
            .unwrap();
    assert_eq!(codes(&report.diagnostics), ["L002"]);
}

/// The acceptance gate in test form: the real workspace, with its
/// checked-in allowlist, lints clean.
#[test]
fn workspace_self_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let report = run(&Options {
        root: root.clone(),
        files: None,
        allowlist: Some(root.join("crates/lint/allowlist.txt")),
    })
    .unwrap();
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(rendered.is_empty(), "self-lint found violations:\n{}", rendered.join("\n"));
    assert!(report.files >= 80, "expected a whole-workspace scan, got {} files", report.files);
}

/// Acceptance: seeding a violation into a scratch file makes the binary
/// exit nonzero with a `file:line:col` diagnostic.
#[test]
fn scratch_violation_exits_nonzero_with_position() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).unwrap();
    let scratch = dir.join("scratch_d001.rs");
    std::fs::write(&scratch, "use std::collections::HashMap;\npub fn f() {}\n").unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_d3t-lint"))
        .arg("--no-allowlist")
        .arg(&scratch)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("scratch_d001.rs:1:23: D001"), "stdout:\n{stdout}");
    let last = stdout.lines().last().unwrap();
    assert!(last.starts_with("LINT files=1 rules="), "last line: {last}");
    assert!(last.ends_with("violations=1"), "last line: {last}");
}
