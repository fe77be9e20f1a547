//! End-to-end tests of the lint engine against the deliberately violating
//! snippets in `tests/fixtures/`. Each fixture is fed to [`lint_sources`]
//! under a workspace path that puts it in scope for the lint under test;
//! the fixtures themselves are never compiled (the workspace walk skips
//! `xtask/tests/fixtures/`).

use xtask::lint_sources;
use xtask::lints::lint;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {path}: {e}"))
}

fn lints_fired(sources: &[(String, String)], allow: &str, baseline: &str) -> Vec<&'static str> {
    let outcome = lint_sources(sources, allow, baseline, "").expect("lint run");
    outcome.violations.iter().map(|d| d.lint).collect()
}

#[test]
fn determinism_time_fires_in_result_producing_crate() {
    let sources = vec![("crates/fdm/src/fixture.rs".to_string(), fixture("determinism_time.rs"))];
    let fired = lints_fired(&sources, "", "");
    assert_eq!(fired, vec![lint::DETERMINISM_TIME], "{fired:?}");
}

#[test]
fn determinism_time_is_exempt_in_telemetry_and_bench() {
    for crate_dir in ["telemetry", "bench"] {
        let path = format!("crates/{crate_dir}/src/fixture.rs");
        let sources = vec![(path, fixture("determinism_time.rs"))];
        let outcome = lint_sources(&sources, "", "", "").expect("lint run");
        assert!(outcome.is_clean(), "{crate_dir}: {:?}", outcome.violations);
    }
}

#[test]
fn determinism_spawn_fires_outside_the_pool_crate() {
    let sources = vec![("crates/nn/src/fixture.rs".to_string(), fixture("determinism_spawn.rs"))];
    let fired = lints_fired(&sources, "", "");
    assert_eq!(fired, vec![lint::DETERMINISM_SPAWN], "{fired:?}");

    let sources =
        vec![("crates/parallel/src/fixture.rs".to_string(), fixture("determinism_spawn.rs"))];
    let outcome = lint_sources(&sources, "", "", "").expect("lint run");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
}

#[test]
fn determinism_hash_fires_in_result_producing_crate() {
    let sources =
        vec![("crates/linalg/src/fixture.rs".to_string(), fixture("determinism_hash.rs"))];
    let fired = lints_fired(&sources, "", "");
    assert!(fired.iter().all(|&l| l == lint::DETERMINISM_HASH), "{fired:?}");
    assert!(!fired.is_empty());
}

#[test]
fn allowlist_suppresses_a_justified_exception() {
    let sources = vec![("crates/fdm/src/fixture.rs".to_string(), fixture("determinism_time.rs"))];
    let allow =
        "determinism-time crates/fdm/src/fixture.rs :: fixture timing never reaches results\n";
    let outcome = lint_sources(&sources, allow, "", "").expect("lint run");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
    assert_eq!(outcome.suppressed.len(), 1);
}

#[test]
fn stale_allowlist_entry_fails_the_run() {
    let sources =
        vec![("crates/fdm/src/clean.rs".to_string(), "pub fn f() -> u32 { 1 }\n".to_string())];
    let allow = "determinism-time crates/fdm/src/clean.rs :: no longer needed\n";
    let fired = lints_fired(&sources, allow, "");
    assert_eq!(fired, vec![lint::ALLOWLIST_STALE], "{fired:?}");
}

#[test]
fn panic_counter_counts_real_sites_and_skips_exempt_forms() {
    let sources = vec![("crates/linalg/src/fixture.rs".to_string(), fixture("panic_sites.rs"))];
    let outcome = lint_sources(&sources, "", "", "").expect("lint run");
    let sites = &outcome.panic_sites["crates/linalg/src/fixture.rs"];
    // unwrap + undocumented expect + assert! + panic! — the invariant
    // expect, debug_assert!, and everything inside #[cfg(test)] are exempt.
    assert_eq!(sites.len(), 4, "{sites:?}");
}

#[test]
fn matching_baseline_passes_and_regression_fails() {
    let sources = vec![("crates/linalg/src/fixture.rs".to_string(), fixture("panic_sites.rs"))];

    let at_baseline = "4 crates/linalg/src/fixture.rs\n";
    let outcome = lint_sources(&sources, "", at_baseline, "").expect("lint run");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);

    // A tightened (regressed-relative-to-current) baseline must fail.
    let regressed = "3 crates/linalg/src/fixture.rs\n";
    let fired = lints_fired(&sources, "", regressed);
    assert_eq!(fired, vec![lint::PANIC_FREEDOM], "{fired:?}");

    // An improvement that is not locked in must fail as stale.
    let slack = "9 crates/linalg/src/fixture.rs\n";
    let fired = lints_fired(&sources, "", slack);
    assert_eq!(fired, vec![lint::BASELINE_STALE], "{fired:?}");
}

#[test]
fn unsafe_is_forbidden_outside_the_pool_crate() {
    let sources =
        vec![("crates/core/src/fixture.rs".to_string(), fixture("unsafe_undocumented.rs"))];
    let fired = lints_fired(&sources, "", "");
    assert!(fired.contains(&lint::UNSAFE_FORBIDDEN), "{fired:?}");
}

#[test]
fn undocumented_unsafe_in_the_pool_crate_fails_only_where_undocumented() {
    let sources =
        vec![("crates/parallel/src/fixture.rs".to_string(), fixture("unsafe_undocumented.rs"))];
    let outcome = lint_sources(&sources, "", "", "").expect("lint run");
    let fired: Vec<_> = outcome.violations.iter().map(|d| d.lint).collect();
    assert_eq!(fired, vec![lint::UNSAFE_UNDOCUMENTED], "{fired:?}");
    assert_eq!(outcome.unsafe_inventory.len(), 2);
    assert_eq!(
        outcome.unsafe_inventory.iter().filter(|s| s.documented).count(),
        1,
        "{:?}",
        outcome.unsafe_inventory
    );
}

#[test]
fn missing_unsafe_deny_attribute_fires_on_crate_roots() {
    let sources =
        vec![("crates/grf/src/lib.rs".to_string(), "pub fn f() -> u32 { 1 }\n".to_string())];
    let fired = lints_fired(&sources, "", "");
    assert_eq!(fired, vec![lint::UNSAFE_DENY], "{fired:?}");

    let sources = vec![(
        "crates/grf/src/lib.rs".to_string(),
        "#![deny(unsafe_code)]\npub fn f() -> u32 { 1 }\n".to_string(),
    )];
    let outcome = lint_sources(&sources, "", "", "").expect("lint run");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
}

#[test]
fn nested_block_comments_mask_decoys_but_not_following_code() {
    let sources =
        vec![("crates/fdm/src/fixture.rs".to_string(), fixture("scanner_nested_comment.rs"))];
    let outcome = lint_sources(&sources, "", "", "").expect("lint run");
    // Only the real `Instant::now()` after the comment, on its exact line;
    // the decoy `unwrap()`/`panic!` text inside the comment counts nothing.
    let fired: Vec<_> = outcome.violations.iter().map(|d| (d.lint, d.line)).collect();
    assert_eq!(fired, vec![(lint::DETERMINISM_TIME, 12)], "{fired:?}");
    assert!(outcome.panic_sites.values().all(Vec::is_empty), "{:?}", outcome.panic_sites);
}

#[test]
fn raw_string_decoys_do_not_count_and_lines_stay_aligned() {
    let sources =
        vec![("crates/linalg/src/fixture.rs".to_string(), fixture("scanner_raw_strings.rs"))];
    let baseline = "1 crates/linalg/src/fixture.rs\n";
    let outcome = lint_sources(&sources, "", baseline, "").expect("lint run");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
    // The one real site, attributed past the multi-line raw string on the
    // correct line — proving the mask preserved every newline.
    let sites = &outcome.panic_sites["crates/linalg/src/fixture.rs"];
    assert_eq!(sites.len(), 1, "{sites:?}");
    assert_eq!(sites[0].line, 20, "{sites:?}");
}

#[test]
fn seeded_deadlock_cycle_is_caught() {
    let sources = vec![("crates/serve/src/fixture.rs".to_string(), fixture("lock_cycle.rs"))];
    let fired = lints_fired(&sources, "", "");
    assert_eq!(fired, vec![lint::LOCK_ORDER], "{fired:?}");

    let outcome = lint_sources(&sources, "", "", "").expect("lint run");
    assert_eq!(
        outcome.locks.cycles,
        vec![vec!["serve::Shared.a".to_string(), "serve::Shared.b".to_string()]]
    );

    // An argued allowlist entry suppresses it.
    let allow = "lock-order crates/serve/src/fixture.rs :: fixture cycle under test\n";
    let outcome = lint_sources(&sources, allow, "", "").expect("lint run");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);
    assert_eq!(outcome.suppressed.len(), 1);
}

#[test]
fn float_family_fires_once_per_specimen() {
    let sources = vec![("crates/linalg/src/fixture.rs".to_string(), fixture("float_family.rs"))];
    let baseline = "1 crates/linalg/src/fixture.rs\n"; // the sort_by unwrap
    let outcome = lint_sources(&sources, "", baseline, "").expect("lint run");
    let mut fired: Vec<_> = outcome.violations.iter().map(|d| d.lint).collect();
    fired.sort_unstable();
    assert_eq!(
        fired,
        vec![
            lint::FLOAT_AS_LOSSY, // x as f32
            lint::FLOAT_AS_LOSSY, // x as usize
            lint::FLOAT_CMP_UNWRAP,
            lint::FLOAT_EQ,
        ],
        "{:?}",
        outcome.violations
    );
}

#[test]
fn stale_entries_for_the_new_families_fail_the_run() {
    let sources =
        vec![("crates/serve/src/clean.rs".to_string(), "pub fn ok() -> u32 { 1 }\n".to_string())];
    let allow = "float-eq crates/serve/src/clean.rs :: gone\n\
                 lock-order crates/serve/src/clean.rs :: gone\n";
    let fired = lints_fired(&sources, allow, "");
    assert_eq!(fired, vec![lint::ALLOWLIST_STALE, lint::ALLOWLIST_STALE], "{fired:?}");
}

#[test]
fn panic_reach_ratchets_public_entry_points() {
    let sources = vec![("crates/serve/src/fixture.rs".to_string(), fixture("panic_reach.rs"))];
    let baseline = "1 crates/serve/src/fixture.rs\n"; // deep_helper's unwrap

    // A reaching entry not in the reach baseline fails, naming the entry.
    let outcome = lint_sources(&sources, "", baseline, "").expect("lint run");
    let fired: Vec<_> = outcome.violations.iter().map(|d| d.lint).collect();
    assert_eq!(fired, vec![lint::PANIC_REACH], "{:?}", outcome.violations);
    assert!(
        outcome.violations[0].message.contains("serve::fixture::entry_point"),
        "{}",
        outcome.violations[0].message
    );

    // Recorded in the baseline: clean — `safe_entry` never needed one.
    let reach = "serve::fixture::entry_point\n";
    let outcome = lint_sources(&sources, "", baseline, reach).expect("lint run");
    assert!(outcome.is_clean(), "{:?}", outcome.violations);

    // A baselined entry that stopped reaching must be re-ratcheted.
    let reach = "serve::fixture::entry_point\nserve::fixture::safe_entry\n";
    let fired = lints_fired_with_reach(&sources, baseline, reach);
    assert_eq!(fired, vec![lint::REACH_BASELINE_STALE], "{fired:?}");
}

fn lints_fired_with_reach(
    sources: &[(String, String)],
    baseline: &str,
    reach: &str,
) -> Vec<&'static str> {
    let outcome = lint_sources(sources, "", baseline, reach).expect("lint run");
    outcome.violations.iter().map(|d| d.lint).collect()
}

#[test]
fn the_real_workspace_is_clean() {
    let root = xtask::workspace_root();
    let outcome = xtask::run_workspace_lint(&root).expect("workspace lint");
    assert!(
        outcome.is_clean(),
        "workspace lint found violations:\n{}",
        xtask::format_report(&outcome, false)
    );
    // The audited unsafe sites (two in deepoheat-parallel; four in the
    // linalg AVX2 module: three in the GEMM microkernel, one calling the
    // AVX2 build of the block kernels) stay documented.
    assert_eq!(outcome.unsafe_inventory.len(), 6);
    assert!(outcome.unsafe_inventory.iter().all(|s| s.documented));
}
