//! Public library functions with no caller outside tests: a report, not a
//! gate. Each one listed is either used in a way the call graph cannot
//! see, documented API, or a candidate for deletion.
//!
//! Callers are every non-test function of the call graph: library code,
//! binaries and examples. Tests (`#[cfg(test)]` items and files under
//! `tests/` or `benches/`) are fed in as callers too, but their calls only
//! set [`UncalledFn::tested`]. Calls count with their loose candidates
//! ([`crate::callgraph::CallSite::loose`]), so a function missing from the
//! list may still be dead. One on it is called by nothing the graph
//! resolves, which misses some real calls: `Self::name(…)`, and a method
//! on a receiver typed by a constructor that returns another type.

use crate::callgraph::Workspace;
use crate::lints::FileKind;

/// One public library function that no non-test code calls.
#[derive(Debug, Clone)]
pub struct UncalledFn {
    /// Qualified name, e.g. `fdm::solution::Solution::sample`.
    pub qualified: String,
    /// Workspace-relative file declaring the function.
    pub path: String,
    /// 1-based line of the declaration.
    pub line: usize,
    /// Whether test code calls it.
    pub tested: bool,
}

/// Lists the `pub` non-test library functions that no non-test function
/// calls, sorted by qualified name.
pub fn analyze(ws: &Workspace) -> Vec<UncalledFn> {
    let mut called = vec![false; ws.fns.len()];
    let mut tested = vec![false; ws.fns.len()];
    for (caller, sites) in ws.calls.iter().enumerate() {
        let f = &ws.fns[caller];
        let mark = if f.is_test || ws.classes[f.file].kind == FileKind::TestOrBench {
            &mut tested
        } else {
            &mut called
        };
        for site in sites {
            for &callee in site.targets.iter().chain(&site.loose) {
                mark[callee] = true;
            }
        }
    }
    let mut out: Vec<UncalledFn> = (0..ws.fns.len())
        .filter(|&id| ws.fns[id].is_pub && ws.is_library(id) && !called[id])
        .map(|id| {
            let f = &ws.fns[id];
            let file = &ws.files[f.file];
            UncalledFn {
                qualified: f.qualified(),
                path: file.path.clone(),
                line: file.line_of(f.sig.0),
                tested: tested[id],
            }
        })
        .collect();
    out.sort_by(|a, b| a.qualified.cmp(&b.qualified));
    out
}

#[cfg(test)]
mod tests {
    use crate::lint_sources;

    #[test]
    fn only_functions_without_a_non_test_caller_are_listed() {
        let lib = "pub fn by_unit_test() {}\npub fn by_tests_dir() {}\npub fn by_bin() {}\n\
                   pub fn by_example() {}\npub fn by_library() {}\npub fn by_nobody() {}\n\
                   fn private_and_uncalled() {}\n\
                   pub struct Grid;\nimpl Grid { pub fn cells(&self) {} }\n\
                   pub fn caller() { by_library(); }\n\
                   #[cfg(test)]\nmod tests { use super::*; #[test] fn t() { by_unit_test(); } }\n";
        let sources: Vec<(String, String)> = [
            ("crates/grf/src/lib.rs", lib),
            (
                "crates/grf/tests/api.rs",
                "use deepoheat_grf::by_tests_dir;\nfn helper() { by_tests_dir(); }\n",
            ),
            (
                "crates/grf/src/bin/tool.rs",
                "fn main() { deepoheat_grf::by_bin(); deepoheat_grf::caller(); }\n",
            ),
            (
                "examples/demo.rs",
                "use deepoheat_grf::{by_example, Grid};\n\
                 fn main() { by_example(); let g: Grid = Grid; g.cells(); }\n",
            ),
        ]
        .into_iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        let outcome = lint_sources(&sources, "", "", "").expect("lint run");
        let listed: Vec<(&str, bool)> =
            outcome.uncalled.iter().map(|u| (u.qualified.as_str(), u.tested)).collect();
        assert_eq!(
            listed,
            vec![
                ("grf::by_nobody", false),
                ("grf::by_tests_dir", true),
                ("grf::by_unit_test", true),
            ]
        );
        let by_unit_test = &outcome.uncalled[2];
        assert_eq!((by_unit_test.path.as_str(), by_unit_test.line), ("crates/grf/src/lib.rs", 1));
    }
}
