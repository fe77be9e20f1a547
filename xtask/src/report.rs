//! Renders `target/analysis-report.json`: the machine-readable summary of
//! a lint run that CI uploads as an artifact. Hand-rolled emission (the
//! crate is dependency-free); [`crate::json::parse`] round-trips it, which
//! the tests use as a well-formedness check.

use crate::LintOutcome;

/// Schema identifier embedded in the report so consumers can detect
/// format changes.
pub const SCHEMA: &str = "deepoheat-analysis-report/v1";

/// Renders the report document (pretty-printed, stable key order).
pub fn render(outcome: &LintOutcome, duration_ms: u64) -> String {
    let mut w = Writer::new();
    w.open('{');
    w.field("schema", &str_json(SCHEMA));
    w.field("duration_ms", &duration_ms.to_string());
    w.field("files_scanned", &outcome.files_scanned.to_string());
    w.field("functions", &outcome.functions.to_string());
    w.field("call_edges", &outcome.call_edges.to_string());
    w.field("clean", if outcome.is_clean() { "true" } else { "false" });

    w.key("violations");
    w.open('[');
    for d in &outcome.violations {
        w.item();
        w.open('{');
        w.field("lint", &str_json(d.lint));
        w.field("path", &str_json(&d.path));
        w.field("line", &d.line.to_string());
        w.field("message", &str_json(&d.message));
        w.close('}');
    }
    w.close(']');

    w.key("panic_ratchet");
    w.open('{');
    w.field("files", &outcome.panic_sites.len().to_string());
    let sites: usize = outcome.panic_sites.values().map(Vec::len).sum();
    w.field("sites", &sites.to_string());
    w.close('}');

    w.key("panic_reach");
    w.open('{');
    w.field("entry_points", &outcome.reach.entries.len().to_string());
    w.field("reaching", &outcome.reach.reaching().len().to_string());
    w.key("entries");
    w.open('[');
    for e in &outcome.reach.entries {
        w.item();
        w.open('{');
        w.field("entry", &str_json(&e.qualified));
        w.field("path", &str_json(&e.path));
        w.field("line", &e.line.to_string());
        w.field("reaches_panic", if e.reaches_panic { "true" } else { "false" });
        if e.reaches_panic {
            w.key("example_path");
            w.open('[');
            for step in &e.example_path {
                w.item();
                w.raw(&str_json(step));
            }
            w.close(']');
            w.field("example_site", &str_json(&e.example_site));
        }
        w.close('}');
    }
    w.close(']');
    w.close('}');

    w.key("lock_order");
    w.open('{');
    w.key("locks");
    w.open('[');
    for lock in &outcome.locks.locks {
        w.item();
        w.raw(&str_json(lock));
    }
    w.close(']');
    w.key("edges");
    w.open('[');
    for e in &outcome.locks.edges {
        w.item();
        w.open('{');
        w.field("held", &str_json(&e.held));
        w.field("acquired", &str_json(&e.acquired));
        w.field("holder", &str_json(&e.holder));
        w.field("path", &str_json(&e.path));
        w.field("line", &e.line.to_string());
        w.close('}');
    }
    w.close(']');
    w.key("cycles");
    w.open('[');
    for cycle in &outcome.locks.cycles {
        w.item();
        w.open('[');
        for lock in cycle {
            w.item();
            w.raw(&str_json(lock));
        }
        w.close(']');
    }
    w.close(']');
    w.close('}');

    w.key("uncalled_pub_fns");
    w.open('[');
    for u in &outcome.uncalled {
        w.item();
        w.open('{');
        w.field("fn", &str_json(&u.qualified));
        w.field("path", &str_json(&u.path));
        w.field("line", &u.line.to_string());
        w.field("tested", if u.tested { "true" } else { "false" });
        w.close('}');
    }
    w.close(']');

    w.close('}');
    w.out.push('\n');
    w.out
}

/// JSON string literal with the standard escapes.
fn str_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A tiny indenting JSON writer: tracks nesting and comma placement so
/// the emission code above stays declarative.
struct Writer {
    out: String,
    indent: usize,
    /// Whether the current container already has a member.
    has_member: Vec<bool>,
}

impl Writer {
    fn new() -> Self {
        Writer { out: String::new(), indent: 0, has_member: Vec::new() }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    /// Starts a member slot: comma + newline when needed.
    fn item(&mut self) {
        if let Some(has) = self.has_member.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
        if self.indent > 0 {
            self.newline();
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.indent += 1;
        self.has_member.push(false);
    }

    fn close(&mut self, bracket: char) {
        let had = self.has_member.pop().unwrap_or(false);
        self.indent -= 1;
        if had {
            self.newline();
        }
        self.out.push(bracket);
    }

    fn key(&mut self, name: &str) {
        self.item();
        self.out.push_str(&str_json(name));
        self.out.push_str(": ");
    }

    fn raw(&mut self, value: &str) {
        self.out.push_str(value);
    }

    fn field(&mut self, name: &str, value: &str) {
        self.key(name);
        self.raw(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::lints::{lint, Diagnostic};
    use crate::uncalled::UncalledFn;

    #[test]
    fn report_round_trips_through_the_json_parser() {
        let mut outcome =
            LintOutcome { files_scanned: 3, functions: 7, call_edges: 9, ..Default::default() };
        outcome.violations.push(Diagnostic {
            lint: lint::FLOAT_EQ,
            path: "crates/core/src/x.rs".into(),
            line: 12,
            message: "exact \"float\" comparison\nwith a newline".into(),
        });
        outcome.locks.locks.push("serve::Queue.inner".into());
        outcome.uncalled.push(UncalledFn {
            qualified: "grf::tile::TilePowerMap::rows".into(),
            path: "crates/grf/src/tile.rs".into(),
            line: 36,
            tested: true,
        });
        let text = render(&outcome, 41);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("duration_ms").and_then(Json::as_f64), Some(41.0));
        assert_eq!(doc.get("clean"), Some(&Json::Bool(false)));
        let v = doc.get("violations").and_then(Json::as_arr).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].get("line").and_then(Json::as_f64), Some(12.0));
        assert_eq!(
            doc.get_path(&["lock_order", "locks"]).and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        let u = doc.get("uncalled_pub_fns").and_then(Json::as_arr).unwrap();
        assert_eq!(u.len(), 1);
        assert_eq!(u[0].get("fn").and_then(Json::as_str), Some("grf::tile::TilePowerMap::rows"));
        assert_eq!(u[0].get("tested"), Some(&Json::Bool(true)));
    }

    #[test]
    fn empty_outcome_renders_valid_json() {
        let text = render(&LintOutcome::default(), 0);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
        assert_eq!(doc.get("clean"), Some(&Json::Bool(true)));
        assert_eq!(doc.get_path(&["panic_reach", "entries"]).and_then(Json::as_arr), Some(&[][..]));
    }
}
