//! The three lint families over a [`ScannedFile`]: determinism,
//! panic-freedom and the unsafe audit. Each check is a pure function from
//! scanned source to [`Diagnostic`]s so the engine is testable on fixture
//! snippets without touching the real workspace.

use crate::scanner::{find_from, word_offsets, ScannedFile};

/// Crates whose library code may read wall clocks: telemetry measures
/// them by design and bench exists to time things.
pub const TIME_EXEMPT_CRATES: &[&str] = &["telemetry", "bench", "xtask"];
/// The only crate allowed to spawn OS threads: every other crate must go
/// through the deterministic `deepoheat-parallel` pool.
pub const SPAWN_EXEMPT_CRATES: &[&str] = &["parallel", "xtask"];
/// Result-producing crates where `HashMap`/`HashSet` iteration order could
/// leak into numerical output; `BTreeMap` (deterministic order) is the
/// sanctioned associative container there.
pub const HASH_LINT_CRATES: &[&str] =
    &["linalg", "fdm", "nn", "autodiff", "core", "grf", "chip", "parallel", "serve"];
/// Crates whose library code is held to the panic-freedom ratchet.
pub const PANIC_LINT_CRATES: &[&str] = &["linalg", "fdm", "nn", "autodiff", "core", "serve"];
/// The only crate permitted to contain `unsafe` code (audited separately).
pub const UNSAFE_EXEMPT_CRATES: &[&str] = &["parallel"];
/// Individual files outside the exempt crates that may contain `unsafe`:
/// the SIMD microkernel module of `deepoheat-linalg`. Sites here are held
/// to the same `// SAFETY:` documentation rule as the exempt crates and
/// are listed by `--unsafe-report`; the owning crate root keeps
/// `#![deny(unsafe_code)]` with a module-scoped `#[allow]`.
pub const UNSAFE_AUDITED_PATHS: &[&str] = &["crates/linalg/src/kernels/simd.rs"];

/// How far above an `unsafe` token a `// SAFETY:` justification may sit.
const SAFETY_COMMENT_WINDOW_LINES: usize = 12;

/// Lint identifiers, used in reports and as allowlist keys.
pub mod lint {
    /// Wall-clock APIs (`Instant`, `SystemTime`) outside telemetry/bench.
    pub const DETERMINISM_TIME: &str = "determinism-time";
    /// `thread::spawn` outside `deepoheat-parallel`.
    pub const DETERMINISM_SPAWN: &str = "determinism-spawn";
    /// `HashMap`/`HashSet` in result-producing library code.
    pub const DETERMINISM_HASH: &str = "determinism-hash";
    /// Panic-capable call sites above the ratchet baseline.
    pub const PANIC_FREEDOM: &str = "panic-freedom";
    /// Missing `#![deny(unsafe_code)]` on a crate root.
    pub const UNSAFE_DENY: &str = "unsafe-deny-missing";
    /// `unsafe` token in a crate that must stay safe.
    pub const UNSAFE_FORBIDDEN: &str = "unsafe-forbidden";
    /// `unsafe` block without a `// SAFETY:` justification.
    pub const UNSAFE_UNDOCUMENTED: &str = "unsafe-undocumented";
    /// Allowlist entry that no longer suppresses anything.
    pub const ALLOWLIST_STALE: &str = "allowlist-stale";
    /// Baseline entry for a file that no longer exists or now has fewer
    /// sites (must be re-ratcheted down).
    pub const BASELINE_STALE: &str = "baseline-stale";
    /// Public entry point that newly reaches a panic site (call-graph
    /// ratchet over `xtask/panic-reach-baseline.txt`).
    pub const PANIC_REACH: &str = "panic-reach";
    /// Reach-baseline entry for an entry point that no longer reaches a
    /// panic (improvement must be locked in).
    pub const REACH_BASELINE_STALE: &str = "reach-baseline-stale";
    /// Two mutexes acquirable in conflicting orders along the call graph.
    pub const LOCK_ORDER: &str = "lock-order";
    /// `==`/`!=` with a floating-point operand in result-producing code.
    pub const FLOAT_EQ: &str = "float-eq";
    /// `partial_cmp(..).unwrap()`/`.expect(..)` — panics on NaN and makes
    /// sort keys panic-capable.
    pub const FLOAT_CMP_UNWRAP: &str = "float-cmp-unwrap";
    /// Lossy `as` cast on a floating-point value in result-producing code.
    pub const FLOAT_AS_LOSSY: &str = "float-as-lossy";

    /// Every lint id the engine can emit — allowlist entries naming
    /// anything else are typos and rejected at parse time.
    pub const ALL: &[&str] = &[
        DETERMINISM_TIME,
        DETERMINISM_SPAWN,
        DETERMINISM_HASH,
        PANIC_FREEDOM,
        UNSAFE_DENY,
        UNSAFE_FORBIDDEN,
        UNSAFE_UNDOCUMENTED,
        ALLOWLIST_STALE,
        BASELINE_STALE,
        PANIC_REACH,
        REACH_BASELINE_STALE,
        LOCK_ORDER,
        FLOAT_EQ,
        FLOAT_CMP_UNWRAP,
        FLOAT_AS_LOSSY,
    ];
}

/// One lint finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint identifier from [`lint`].
    pub lint: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    fn at(lint: &'static str, file: &ScannedFile, offset: usize, message: String) -> Self {
        Diagnostic { lint, path: file.path.clone(), line: file.line_of(offset), message }
    }
}

/// What a file is, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` (excluding `src/bin/`): the crate's library code.
    Library,
    /// `src/main.rs` or `src/bin/*.rs`.
    Binary,
    /// `examples/*.rs`.
    Example,
    /// `tests/**` or `benches/**`.
    TestOrBench,
}

/// Path-derived identity of a file: owning crate plus target kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Short crate name (`linalg`, `parallel`, …); the workspace-root
    /// package is `"workspace"`, the lint driver itself `"xtask"`.
    pub crate_name: String,
    /// Which compilation target the file belongs to.
    pub kind: FileKind,
}

/// Classifies a workspace-relative path. Returns `None` for files the lint
/// pass does not own: vendored shims and the xtask test fixtures (which
/// deliberately contain violations).
pub fn classify(path: &str) -> Option<FileClass> {
    if path.starts_with("vendor/") || path.starts_with("target/") {
        return None;
    }
    if path.starts_with("xtask/tests/fixtures/") {
        return None;
    }
    let (crate_name, local) = if let Some(rest) = path.strip_prefix("crates/") {
        let (name, local) = rest.split_once('/')?;
        (name.to_string(), local)
    } else if let Some(local) = path.strip_prefix("xtask/") {
        ("xtask".to_string(), local)
    } else {
        ("workspace".to_string(), path)
    };
    let kind = if local.starts_with("tests/") || local.starts_with("benches/") {
        FileKind::TestOrBench
    } else if local.starts_with("examples/") {
        FileKind::Example
    } else if local == "src/main.rs" || local.starts_with("src/bin/") {
        FileKind::Binary
    } else if local.starts_with("src/") {
        FileKind::Library
    } else {
        return None; // build scripts, docs, data files
    };
    Some(FileClass { crate_name, kind })
}

/// Whether a crate-root file must carry `#![deny(unsafe_code)]`. Every
/// compilation-target root outside `deepoheat-parallel` must: the
/// attribute does not propagate across targets, so bins, examples and
/// benches each need their own.
pub fn requires_unsafe_deny(path: &str, class: &FileClass) -> bool {
    if UNSAFE_EXEMPT_CRATES.contains(&class.crate_name.as_str()) {
        return false;
    }
    let is_root = path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs")
        || path.contains("/src/bin/")
        || matches!(class.kind, FileKind::Example)
        || path.contains("/benches/");
    is_root && !path.contains("/tests/") && !path.starts_with("tests/")
}

/// Runs the determinism family over one file, appending findings.
pub fn check_determinism(file: &ScannedFile, class: &FileClass, out: &mut Vec<Diagnostic>) {
    // Determinism lints police *library* code: result-producing paths live
    // there. Binaries, examples, tests and benches are drivers.
    if class.kind != FileKind::Library {
        return;
    }
    let name = class.crate_name.as_str();
    if !TIME_EXEMPT_CRATES.contains(&name) {
        for word in ["Instant", "SystemTime"] {
            for off in word_offsets(&file.masked, word) {
                if file.in_test_code(off) {
                    continue;
                }
                out.push(Diagnostic::at(
                    lint::DETERMINISM_TIME,
                    file,
                    off,
                    format!(
                        "`{word}` in result-producing code: wall clocks are reserved for \
                         telemetry/bench (route timings through deepoheat-telemetry spans)"
                    ),
                ));
            }
        }
    }
    if !SPAWN_EXEMPT_CRATES.contains(&name) {
        let mut from = 0;
        while let Some(off) = find_from(&file.masked, b"thread::spawn", from) {
            from = off + 1;
            if file.in_test_code(off) {
                continue;
            }
            out.push(Diagnostic::at(
                lint::DETERMINISM_SPAWN,
                file,
                off,
                "`thread::spawn` outside deepoheat-parallel: all parallelism must go through \
                 the deterministic pool (parallel::run_scope / par_map_chunks)"
                    .to_string(),
            ));
        }
    }
    if HASH_LINT_CRATES.contains(&name) {
        for word in ["HashMap", "HashSet"] {
            for off in word_offsets(&file.masked, word) {
                if file.in_test_code(off) {
                    continue;
                }
                out.push(Diagnostic::at(
                    lint::DETERMINISM_HASH,
                    file,
                    off,
                    format!(
                        "`{word}` in a result-producing crate: iteration order is \
                         nondeterministic; use BTreeMap/BTreeSet or a Vec"
                    ),
                ));
            }
        }
    }
}

/// A panic-capable call site found by [`count_panic_sites`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-based line.
    pub line: usize,
    /// Byte offset of the matched token — lets the reachability pass
    /// attribute the site to the enclosing function body.
    pub offset: usize,
    /// What was matched (`unwrap`, `expect`, `panic!`, …).
    pub what: String,
}

/// Counts panic-capable sites in non-test library code: `.unwrap()`,
/// `.expect(..)` (unless the message documents an invariant with an
/// `"invariant: …"` prefix), `panic!`/`unreachable!`/`todo!`/
/// `unimplemented!`, and `assert!`/`assert_eq!`/`assert_ne!`
/// (`debug_assert*` is exempt: it compiles out of release builds).
pub fn count_panic_sites(file: &ScannedFile) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    for method in ["unwrap", "expect"] {
        for off in word_offsets(&file.masked, method) {
            if file.in_test_code(off) {
                continue;
            }
            // Must be a method call: preceded by `.`, followed by `(`.
            if off == 0 || file.masked[off - 1] != b'.' {
                continue;
            }
            let after = off + method.len();
            if file.masked.get(after) != Some(&b'(') {
                continue;
            }
            if method == "expect" && expect_documents_invariant(file, after) {
                continue;
            }
            sites.push(PanicSite {
                line: file.line_of(off),
                offset: off,
                what: format!(".{method}()"),
            });
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne"]
    {
        for off in word_offsets(&file.masked, mac) {
            if file.in_test_code(off) {
                continue;
            }
            if file.masked.get(off + mac.len()) != Some(&b'!') {
                continue;
            }
            sites.push(PanicSite { line: file.line_of(off), offset: off, what: format!("{mac}!") });
        }
    }
    sites.sort_by_key(|s| s.line);
    sites
}

/// Whether the `.expect(` call whose `(` is at `open` carries a string
/// literal starting with `"invariant: "` — the sanctioned way to keep an
/// expect in library code (see STATIC_ANALYSIS.md). The message must
/// state *why* the value is always present, which is what reviewers audit.
fn expect_documents_invariant(file: &ScannedFile, open: usize) -> bool {
    let bytes = file.raw.as_bytes();
    let mut i = open + 1;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return false; // non-literal message: cannot be audited statically
    }
    file.raw[i + 1..].starts_with("invariant: ")
}

/// One `unsafe` occurrence and its justification, for the audit report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line of the `unsafe` token.
    pub line: usize,
    /// The source line, trimmed.
    pub context: String,
    /// The contiguous `//` comment block directly above (trimmed lines),
    /// empty if there is none.
    pub comment_block: Vec<String>,
    /// Whether a `// SAFETY:` line was found within the search window.
    pub documented: bool,
}

/// Finds every `unsafe` token in non-test code and pairs it with the
/// contiguous comment block above it. A site is documented iff `SAFETY:`
/// appears in that block, on the site's own line, or within
/// `SAFETY_COMMENT_WINDOW_LINES` lines above it (the window covers
/// comments separated from the site by attribute lines).
pub fn unsafe_sites(file: &ScannedFile) -> Vec<UnsafeSite> {
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    let mut sites = Vec::new();
    for off in word_offsets(&file.masked, "unsafe") {
        if file.in_test_code(off) {
            continue;
        }
        let line = file.line_of(off);
        let idx = line - 1;
        let window_start = idx.saturating_sub(SAFETY_COMMENT_WINDOW_LINES);
        // Scan the window bottom-up, stopping at the first blank line so a
        // neighbouring item's SAFETY comment cannot vouch for this site.
        let mut documented = false;
        for l in raw_lines[window_start..=idx.min(raw_lines.len().saturating_sub(1))].iter().rev() {
            let t = l.trim_start();
            if t.is_empty() {
                break;
            }
            if t.contains("SAFETY:") && (t.starts_with("//") || !t.starts_with("unsafe")) {
                documented = true;
                break;
            }
        }
        let mut comment_block = Vec::new();
        for l in raw_lines[..idx].iter().rev() {
            let t = l.trim();
            if t.starts_with("//") {
                comment_block.push(t.to_string());
            } else {
                break;
            }
        }
        comment_block.reverse();
        // A SAFETY: marker anywhere in the contiguous block counts even
        // when the block is longer than the line window.
        documented = documented || comment_block.iter().any(|l| l.contains("SAFETY:"));
        sites.push(UnsafeSite {
            path: file.path.clone(),
            line,
            context: raw_lines.get(idx).map_or(String::new(), |l| l.trim().to_string()),
            comment_block,
            documented,
        });
    }
    sites
}

/// Runs the unsafe-audit family over one file, appending findings.
pub fn check_unsafe(file: &ScannedFile, class: &FileClass, out: &mut Vec<Diagnostic>) {
    let exempt = UNSAFE_EXEMPT_CRATES.contains(&class.crate_name.as_str())
        || UNSAFE_AUDITED_PATHS.contains(&file.path.as_str());
    if !exempt {
        for off in word_offsets(&file.masked, "unsafe") {
            // `#![deny(unsafe_code)]`-adjacent mentions are masked away
            // only in comments/strings; the attribute itself names the
            // lint, not the keyword, so a bare `unsafe` here is real code.
            if file.in_test_code(off) {
                continue;
            }
            out.push(Diagnostic::at(
                lint::UNSAFE_FORBIDDEN,
                file,
                off,
                format!(
                    "`unsafe` in {}: only deepoheat-parallel and the audited kernel modules \
                     (UNSAFE_AUDITED_PATHS) may contain unsafe code (and each site needs a \
                     // SAFETY: justification there)",
                    class.crate_name
                ),
            ));
        }
    }
    if requires_unsafe_deny(&file.path, class)
        && find_from(&file.masked, b"#![deny(unsafe_code)]", 0).is_none()
        && find_from(&file.masked, b"#![forbid(unsafe_code)]", 0).is_none()
    {
        out.push(Diagnostic {
            lint: lint::UNSAFE_DENY,
            path: file.path.clone(),
            line: 1,
            message: "crate-root file is missing `#![deny(unsafe_code)]` (the attribute does \
                      not propagate across targets, so every root needs its own)"
                .to_string(),
        });
    }
    if exempt {
        for site in unsafe_sites(file) {
            if !site.documented {
                out.push(Diagnostic {
                    lint: lint::UNSAFE_UNDOCUMENTED,
                    path: site.path,
                    line: site.line,
                    message: format!(
                        "`unsafe` without a `// SAFETY:` justification within {SAFETY_COMMENT_WINDOW_LINES} \
                         lines above: `{}`",
                        site.context
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_class(name: &str) -> FileClass {
        FileClass { crate_name: name.into(), kind: FileKind::Library }
    }

    #[test]
    fn classify_maps_paths_to_crates_and_kinds() {
        let c = classify("crates/linalg/src/cg.rs").unwrap();
        assert_eq!(c, lib_class("linalg"));
        assert_eq!(classify("crates/bench/src/bin/table1.rs").unwrap().kind, FileKind::Binary);
        assert_eq!(classify("crates/nn/tests/properties.rs").unwrap().kind, FileKind::TestOrBench);
        assert_eq!(
            classify("crates/bench/benches/fdm_solve.rs").unwrap().kind,
            FileKind::TestOrBench
        );
        assert_eq!(classify("examples/quickstart.rs").unwrap().kind, FileKind::Example);
        assert_eq!(classify("src/lib.rs").unwrap().crate_name, "workspace");
        assert_eq!(classify("xtask/src/main.rs").unwrap().crate_name, "xtask");
        assert!(classify("vendor/rand/src/lib.rs").is_none());
        assert!(classify("xtask/tests/fixtures/bad.rs").is_none());
        assert!(classify("README.md").is_none());
    }

    #[test]
    fn time_lint_fires_outside_telemetry_and_bench() {
        let f = ScannedFile::new("crates/fdm/src/x.rs", "fn f() { let t = Instant::now(); }");
        let mut out = Vec::new();
        check_determinism(&f, &lib_class("fdm"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].lint, lint::DETERMINISM_TIME);

        let mut out = Vec::new();
        check_determinism(&f, &lib_class("telemetry"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn spawn_and_hash_lints_scope_correctly() {
        let src = "use std::collections::HashMap;\nfn f() { std::thread::spawn(|| {}); }";
        let f = ScannedFile::new("crates/core/src/x.rs", src);
        let mut out = Vec::new();
        check_determinism(&f, &lib_class("core"), &mut out);
        let lints: Vec<_> = out.iter().map(|d| d.lint).collect();
        assert!(lints.contains(&lint::DETERMINISM_SPAWN));
        assert!(lints.contains(&lint::DETERMINISM_HASH));

        // parallel may spawn; telemetry may use HashMap (not result-producing).
        let mut out = Vec::new();
        check_determinism(&f, &lib_class("parallel"), &mut out);
        assert!(out.iter().all(|d| d.lint != lint::DETERMINISM_SPAWN));
    }

    #[test]
    fn comments_and_tests_do_not_trip_determinism_lints() {
        let src = "// Instant is banned here\nfn f() {}\n#[cfg(test)]\nmod tests {\n  fn t() { let _ = std::time::Instant::now(); }\n}\n";
        let f = ScannedFile::new("crates/fdm/src/x.rs", src);
        let mut out = Vec::new();
        check_determinism(&f, &lib_class("fdm"), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn panic_sites_are_counted_with_invariant_exemption() {
        let src = r#"
fn f(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = v.expect("oops");
    let c = v.expect("invariant: caller checked is_some above");
    assert!(a > 0);
    debug_assert!(b > 0);
    if a == 3 { panic!("boom"); }
    a + b + c
}
#[cfg(test)]
mod tests {
    fn t() { None::<u32>.unwrap(); }
}
"#;
        let f = ScannedFile::new("crates/linalg/src/x.rs", src);
        let sites = count_panic_sites(&f);
        let whats: Vec<_> = sites.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(whats, vec![".unwrap()", ".expect()", "assert!", "panic!"], "{sites:?}");
    }

    #[test]
    fn unsafe_lints_forbid_and_require_safety_comments() {
        let f = ScannedFile::new("crates/linalg/src/x.rs", "fn f() { unsafe { } }");
        let mut out = Vec::new();
        check_unsafe(&f, &lib_class("linalg"), &mut out);
        assert_eq!(out[0].lint, lint::UNSAFE_FORBIDDEN);

        let documented = "// SAFETY: the pointer outlives the call.\nfn g(p: *const u8) { unsafe { p.read(); } }";
        let f = ScannedFile::new("crates/parallel/src/x.rs", documented);
        let mut out = Vec::new();
        check_unsafe(&f, &lib_class("parallel"), &mut out);
        assert!(out.is_empty(), "{out:?}");

        let undocumented = "fn g(p: *const u8) { unsafe { p.read(); } }";
        let f = ScannedFile::new("crates/parallel/src/x.rs", undocumented);
        let mut out = Vec::new();
        check_unsafe(&f, &lib_class("parallel"), &mut out);
        assert_eq!(out[0].lint, lint::UNSAFE_UNDOCUMENTED);
    }

    #[test]
    fn audited_paths_allow_unsafe_but_still_require_safety_comments() {
        let path = "crates/linalg/src/kernels/simd.rs";
        assert!(UNSAFE_AUDITED_PATHS.contains(&path));

        let documented = "// SAFETY: feature detection ran above.\nfn f() { unsafe { core::arch::x86_64::_mm256_setzero_pd(); } }";
        let f = ScannedFile::new(path, documented);
        let mut out = Vec::new();
        check_unsafe(&f, &lib_class("linalg"), &mut out);
        assert!(out.is_empty(), "{out:?}");

        let undocumented = "fn f(p: *const f64) { unsafe { p.read(); } }";
        let f = ScannedFile::new(path, undocumented);
        let mut out = Vec::new();
        check_unsafe(&f, &lib_class("linalg"), &mut out);
        assert_eq!(out[0].lint, lint::UNSAFE_UNDOCUMENTED);

        // A sibling file in the same crate stays forbidden.
        let f = ScannedFile::new("crates/linalg/src/kernels/mod.rs", undocumented);
        let mut out = Vec::new();
        check_unsafe(&f, &lib_class("linalg"), &mut out);
        assert_eq!(out[0].lint, lint::UNSAFE_FORBIDDEN);
    }

    #[test]
    fn crate_roots_must_deny_unsafe_code() {
        let f = ScannedFile::new("crates/linalg/src/lib.rs", "//! docs\nmod x;\n");
        let mut out = Vec::new();
        check_unsafe(&f, &lib_class("linalg"), &mut out);
        assert_eq!(out[0].lint, lint::UNSAFE_DENY);

        let ok = ScannedFile::new("crates/linalg/src/lib.rs", "#![deny(unsafe_code)]\nmod x;\n");
        let mut out = Vec::new();
        check_unsafe(&ok, &lib_class("linalg"), &mut out);
        assert!(out.is_empty());

        // Non-root library files do not need the attribute.
        let inner = ScannedFile::new("crates/linalg/src/cg.rs", "mod x;\n");
        let mut out = Vec::new();
        check_unsafe(&inner, &lib_class("linalg"), &mut out);
        assert!(out.is_empty());
    }
}
