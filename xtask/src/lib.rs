#![deny(unsafe_code)]
//! Project-invariant static analysis for the DeepOHeat workspace.
//!
//! `cargo xtask lint` machine-checks the promises the docs make
//! (PERFORMANCE.md's bitwise determinism, RESILIENCE.md's bit-identical
//! resume) instead of leaving them to reviewer vigilance:
//!
//! * **determinism** — wall clocks outside telemetry/bench, `thread::spawn`
//!   outside the deterministic pool, hash-order-sensitive containers in
//!   result-producing crates;
//! * **panic-freedom** — a per-file ratchet over panic-capable call sites
//!   in the solver/NN library crates (`xtask/panic-baseline.txt`);
//! * **unsafe audit** — `#![deny(unsafe_code)]` on every crate root
//!   outside `deepoheat-parallel`, and a `// SAFETY:` justification on
//!   every unsafe site inside it (`--unsafe-report` prints the inventory).
//!
//! Exceptions live in `xtask/lint-allow.txt`, one justification per line.
//! See STATIC_ANALYSIS.md for the workflow.
//!
//! Alongside, it reports the public library functions that nothing
//! outside tests calls (the [`uncalled`] module), as data, not as a gate.
//! The fixture tests look call-graph functions up by name with
//! [`callgraph::Workspace::fn_by_qualified`].
//!
//! `cargo xtask benchcheck` is the CI perf-regression gate: it compares
//! fresh `BENCH_*.json` manifests against the committed
//! `xtask/bench-baseline.json` within per-gauge tolerance bands (see the
//! [`benchcheck`] module).
//!
//! `cargo xtask metrics-doc` keeps TELEMETRY.md's metric tables in sync
//! with the names the code actually emits (see the [`metricsdoc`]
//! module).

pub mod allowlist;
pub mod baseline;
pub mod benchcheck;
pub mod callgraph;
pub mod floatlint;
pub mod items;
pub mod json;
pub mod lexer;
pub mod lints;
pub mod locks;
pub mod metricsdoc;
pub mod reach;
pub mod report;
pub mod scanner;
pub mod uncalled;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lints::{Diagnostic, FileKind, PanicSite, UnsafeSite, PANIC_LINT_CRATES};
use scanner::ScannedFile;

/// Relative path of the allowlist file.
pub const ALLOWLIST_PATH: &str = "xtask/lint-allow.txt";
/// Relative path of the panic-freedom ratchet file.
pub const BASELINE_PATH: &str = "xtask/panic-baseline.txt";
/// Relative path of the panic-reachability ratchet file.
pub const REACH_BASELINE_PATH: &str = "xtask/panic-reach-baseline.txt";
/// Where `cargo xtask lint` writes the machine-readable report.
pub const REPORT_PATH: &str = "target/analysis-report.json";

/// Directory names never descended into during the workspace walk.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", ".cargo"];

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings that fail the run (after allowlisting and the ratchet).
    pub violations: Vec<Diagnostic>,
    /// Findings suppressed by the allowlist (for `--verbose` output).
    pub suppressed: Vec<Diagnostic>,
    /// Per-file panic-capable sites in ratcheted crates.
    pub panic_sites: BTreeMap<String, Vec<PanicSite>>,
    /// Every unsafe site in the audited crate, documented or not.
    pub unsafe_inventory: Vec<UnsafeSite>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Functions in the call graph (library code of classified crates).
    pub functions: usize,
    /// Resolved call edges in the graph.
    pub call_edges: usize,
    /// Per-entry-point panic-reachability verdicts.
    pub reach: reach::ReachReport,
    /// The lock-order graph and any cycles.
    pub locks: locks::LockReport,
    /// Public library functions with no caller outside tests.
    pub uncalled: Vec<uncalled::UncalledFn>,
}

impl LintOutcome {
    /// Whether the run passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Lints a set of already-loaded sources against the given allowlist and
/// baseline texts. This is the pure core `cargo xtask lint` wraps — tests
/// feed it fixture snippets directly.
///
/// # Errors
///
/// Returns a message for malformed allowlist/baseline input.
pub fn lint_sources(
    sources: &[(String, String)],
    allowlist_text: &str,
    baseline_text: &str,
    reach_baseline_text: &str,
) -> Result<LintOutcome, String> {
    let allow = allowlist::parse(allowlist_text)?;
    let base = baseline::parse(baseline_text)?;
    let reach_base = reach::parse_baseline(reach_baseline_text)?;

    let mut raw_diags = Vec::new();
    let mut outcome = LintOutcome::default();
    let mut graph_files = Vec::new();
    let mut graph_classes = Vec::new();
    for (path, text) in sources {
        let Some(class) = lints::classify(path) else { continue };
        let file = ScannedFile::new(path.clone(), text.clone());
        outcome.files_scanned += 1;
        lints::check_determinism(&file, &class, &mut raw_diags);
        lints::check_unsafe(&file, &class, &mut raw_diags);
        floatlint::check(&file, &class, &mut raw_diags);
        if class.kind == FileKind::Library && PANIC_LINT_CRATES.contains(&class.crate_name.as_str())
        {
            let sites = lints::count_panic_sites(&file);
            if !sites.is_empty() {
                outcome.panic_sites.insert(path.clone(), sites);
            }
        }
        if lints::UNSAFE_EXEMPT_CRATES.contains(&class.crate_name.as_str())
            || lints::UNSAFE_AUDITED_PATHS.contains(&file.path.as_str())
        {
            outcome.unsafe_inventory.extend(lints::unsafe_sites(&file));
        }
        graph_files.push(file);
        graph_classes.push(class);
    }

    // The workspace analyses: call graph, panic reachability, lock order,
    // and the public functions nothing outside tests calls.
    let ws = callgraph::Workspace::build(graph_files, graph_classes);
    outcome.functions =
        ws.fns.iter().filter(|f| ws.classes[f.file].kind == FileKind::Library).count();
    outcome.call_edges = ws.edge_count();
    outcome.reach = reach::analyze(&ws);
    outcome.locks = locks::analyze(&ws, &mut raw_diags);
    outcome.uncalled = uncalled::analyze(&ws);

    let (mut kept, suppressed) = allowlist::apply(raw_diags, &allow);
    // Ratchet diagnostics bypass the allowlist: baselines are the only
    // sanctioned exception mechanism for them.
    kept.extend(baseline::check(&outcome.panic_sites, &base));
    kept.extend(reach::check(&outcome.reach, &reach_base));
    kept.sort_by(|a, b| (a.path.as_str(), a.line, a.lint).cmp(&(b.path.as_str(), b.line, b.lint)));
    outcome.violations = kept;
    outcome.suppressed = suppressed;
    Ok(outcome)
}

/// Collects every workspace `.rs` file (workspace-relative path + text),
/// skipping `target/`, `vendor/`, VCS metadata and the deliberately
/// violating fixture snippets under `xtask/tests/fixtures/`.
///
/// # Errors
///
/// Propagates I/O failures with the offending path.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for rel in files {
        let text =
            std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
        out.push((rel, text));
    }
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = relative(root, &path);
            if rel == "xtask/tests/fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(relative(root, &path));
        }
    }
    Ok(())
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

/// Locates the workspace root: the parent of xtask's own manifest dir.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map_or(manifest.clone(), Path::to_path_buf)
}

/// Runs the full workspace lint, reading allowlist and baseline from disk
/// (both optional: missing files behave as empty).
///
/// # Errors
///
/// Returns a message for I/O failures or malformed config files.
pub fn run_workspace_lint(root: &Path) -> Result<LintOutcome, String> {
    let sources = collect_sources(root)?;
    let allow_text = read_optional(&root.join(ALLOWLIST_PATH))?;
    let baseline_text = read_optional(&root.join(BASELINE_PATH))?;
    let reach_baseline_text = read_optional(&root.join(REACH_BASELINE_PATH))?;
    lint_sources(&sources, &allow_text, &baseline_text, &reach_baseline_text)
}

/// Rewrites both ratchet baselines (per-file panic counts and
/// panic-reaching entry points) from the current outcome, returning the
/// rendered panic-baseline text.
///
/// # Errors
///
/// Propagates write failures.
pub fn update_baseline(root: &Path, outcome: &LintOutcome) -> Result<String, String> {
    let counts: BTreeMap<String, usize> =
        outcome.panic_sites.iter().map(|(p, s)| (p.clone(), s.len())).collect();
    let text = baseline::render(&counts);
    let path = root.join(BASELINE_PATH);
    std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
    let reach_text = reach::render_baseline(&outcome.reach);
    let reach_path = root.join(REACH_BASELINE_PATH);
    std::fs::write(&reach_path, &reach_text)
        .map_err(|e| format!("write {}: {e}", reach_path.display()))?;
    Ok(text)
}

fn read_optional(path: &Path) -> Result<String, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// Formats the unsafe-site inventory for `--unsafe-report`.
pub fn format_unsafe_report(inventory: &[UnsafeSite]) -> String {
    let mut out = String::new();
    out.push_str(&format!("unsafe audit: {} site(s) in the exempt crate(s)\n", inventory.len()));
    for site in inventory {
        out.push_str(&format!(
            "\n  {}:{} {}\n    documented: {}\n",
            site.path,
            site.line,
            site.context,
            if site.documented { "yes" } else { "NO — missing // SAFETY:" }
        ));
        for line in &site.comment_block {
            out.push_str(&format!("    {line}\n"));
        }
    }
    out
}

/// Formats violations as a compiler-style report, grouped by lint.
pub fn format_report(outcome: &LintOutcome, verbose: bool) -> String {
    let mut out = String::new();
    if verbose {
        for diag in &outcome.suppressed {
            out.push_str(&format!(
                "allowed  [{}] {}:{} {}\n",
                diag.lint, diag.path, diag.line, diag.message
            ));
        }
    }
    for diag in &outcome.violations {
        out.push_str(&format!(
            "error    [{}] {}:{} {}\n",
            diag.lint, diag.path, diag.line, diag.message
        ));
    }
    let panic_total: usize = outcome.panic_sites.values().map(Vec::len).sum();
    out.push_str(&format!(
        "xtask lint: {} file(s) scanned, {} violation(s), {} suppressed by allowlist, \
         {} ratcheted panic site(s) across {} file(s)\n",
        outcome.files_scanned,
        outcome.violations.len(),
        outcome.suppressed.len(),
        panic_total,
        outcome.panic_sites.len(),
    ));
    out.push_str(&format!(
        "analysis: {} function(s), {} call edge(s); {} of {} entry point(s) reach a panic; \
         {} lock(s), {} ordering edge(s), {} cycle(s); {} public fn(s) with no caller \
         outside tests\n",
        outcome.functions,
        outcome.call_edges,
        outcome.reach.reaching().len(),
        outcome.reach.entries.len(),
        outcome.locks.locks.len(),
        outcome.locks.edges.len(),
        outcome.locks.cycles.len(),
        outcome.uncalled.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lints::lint;

    #[test]
    fn lint_sources_end_to_end_clean_and_dirty() {
        let clean = vec![(
            "crates/fdm/src/x.rs".to_string(),
            "fn f() -> Result<(), ()> { Ok(()) }\n".to_string(),
        )];
        let outcome = lint_sources(&clean, "", "", "").unwrap();
        assert!(outcome.is_clean(), "{:?}", outcome.violations);

        let dirty = vec![(
            "crates/fdm/src/x.rs".to_string(),
            "fn f() { let _ = std::time::Instant::now(); }\n".to_string(),
        )];
        let outcome = lint_sources(&dirty, "", "", "").unwrap();
        assert_eq!(outcome.violations.len(), 1);
        assert_eq!(outcome.violations[0].lint, lint::DETERMINISM_TIME);
    }

    #[test]
    fn vendor_and_fixture_files_are_ignored() {
        let sources = vec![
            ("vendor/rand/src/lib.rs".to_string(), "fn f() { x.unwrap(); unsafe {} }".into()),
            ("xtask/tests/fixtures/bad.rs".to_string(), "fn f() { panic!(); }".into()),
        ];
        let outcome = lint_sources(&sources, "", "", "").unwrap();
        assert!(outcome.is_clean());
        assert_eq!(outcome.files_scanned, 0);
    }

    #[test]
    fn unsafe_inventory_collects_parallel_sites() {
        let sources = vec![(
            "crates/parallel/src/lib.rs".to_string(),
            "#![allow(unused)]\n// SAFETY: sound because reasons.\nfn f(p: *const u8) { let _ = unsafe { p.read() }; }\n"
                .to_string(),
        )];
        let outcome = lint_sources(&sources, "", "", "").unwrap();
        assert!(outcome.is_clean(), "{:?}", outcome.violations);
        assert_eq!(outcome.unsafe_inventory.len(), 1);
        assert!(outcome.unsafe_inventory[0].documented);
        let report = format_unsafe_report(&outcome.unsafe_inventory);
        assert!(report.contains("SAFETY: sound because reasons."), "{report}");
    }
}
