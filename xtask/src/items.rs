//! Item extraction: walks the token stream of a masked source file and
//! records every `fn`, `struct`, `trait`/`impl` method and `use`
//! declaration with its module path, visibility and `#[cfg(test)]`
//! status. This is the symbol table the call-graph builder resolves
//! against — deliberately conservative (no type inference, no macro
//! expansion), erring toward recording too much rather than too little.

use crate::lexer::{lex, Tok, TokKind};
use crate::scanner::ScannedFile;

/// One function (free or method) found in a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index of the owning file in the workspace file list.
    pub file: usize,
    /// Short crate name (`serve`, `linalg`, …).
    pub crate_name: String,
    /// Module path inside the crate (file modules + inline `mod`s).
    pub module: Vec<String>,
    /// `impl`/`trait` type the fn is a method of, if any.
    pub self_type: Option<String>,
    /// The function's name.
    pub name: String,
    /// Declared with bare `pub` (externally callable).
    pub is_pub: bool,
    /// Inside `#[cfg(test)]` / `#[test]` code.
    pub is_test: bool,
    /// Byte range of the body `{ … }` (inclusive of braces).
    pub body: (usize, usize),
    /// Byte range from the `fn` keyword to the body-opening brace.
    pub sig: (usize, usize),
    /// Return-type text (tokens after `->`, concatenated), empty if none.
    pub ret: String,
}

impl FnItem {
    /// `crate::module::Type::name` — the id used in reports and baselines.
    pub fn qualified(&self) -> String {
        let mut segs: Vec<&str> = vec![self.crate_name.as_str()];
        segs.extend(self.module.iter().map(String::as_str));
        if let Some(t) = &self.self_type {
            segs.push(t);
        }
        segs.push(&self.name);
        segs.join("::")
    }

    /// Path segments of [`Self::qualified`], for suffix matching.
    pub fn segments(&self) -> Vec<String> {
        let mut segs = vec![self.crate_name.clone()];
        segs.extend(self.module.iter().cloned());
        if let Some(t) = &self.self_type {
            segs.push(t.clone());
        }
        segs.push(self.name.clone());
        segs
    }
}

/// One struct or enum and its named fields (tuple/unit structs and enums
/// record no fields).
#[derive(Debug, Clone)]
pub struct StructItem {
    pub file: usize,
    pub crate_name: String,
    pub module: Vec<String>,
    pub name: String,
    /// `(field name, concatenated type text)`, e.g. `("state", "Mutex<QueueState>")`.
    pub fields: Vec<(String, String)>,
    pub is_enum: bool,
}

/// One `use` binding: `local` becomes visible in `module` as `target`.
#[derive(Debug, Clone)]
pub struct UseEntry {
    /// Index of the declaring file: every binary of a crate maps to the
    /// crate's root module, so the file tells their bindings apart.
    pub file: usize,
    pub module: Vec<String>,
    /// The name introduced locally (`*` for glob imports).
    pub local: String,
    /// Full path segments of the imported item.
    pub target: Vec<String>,
}

/// One module-level `type Name = Target<…>;` alias.
#[derive(Debug, Clone)]
pub struct TypeAlias {
    pub name: String,
    /// The target's head type name (`Experiment` for
    /// `Experiment<PowerMap>`), smart pointers peeled.
    pub target: String,
}

/// Everything extracted from one file.
#[derive(Debug, Default)]
pub struct FileItems {
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    pub uses: Vec<UseEntry>,
    pub aliases: Vec<TypeAlias>,
}

/// Derives the module path a file contributes from its workspace-relative
/// path: `crates/x/src/a/b.rs` → `["a", "b"]`, `…/a/mod.rs` → `["a"]`,
/// `src/lib.rs`/`src/main.rs` → `[]`.
pub fn file_module_path(path: &str) -> Vec<String> {
    let local = path
        .rsplit_once("/src/")
        .map(|(_, l)| l)
        .or_else(|| path.strip_prefix("src/"))
        .unwrap_or(path)
        .trim_end_matches(".rs");
    if local == "lib" || local == "main" || local.starts_with("bin/") {
        return Vec::new();
    }
    let mut segs: Vec<String> = local.split('/').map(str::to_string).collect();
    if segs.last().map(String::as_str) == Some("mod") {
        segs.pop();
    }
    segs
}

/// Keywords that look like calls when followed by `(`.
pub const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "else", "let", "in", "as", "move", "ref",
    "mut", "fn", "impl", "dyn", "where", "unsafe", "break", "continue", "await", "box",
];

/// Walks a scanned file and extracts its items.
pub fn extract(file: &ScannedFile, file_idx: usize, crate_name: &str) -> FileItems {
    let toks = lex(&file.masked);
    let mut out = FileItems::default();
    let mut walker = Walker {
        file,
        file_idx,
        crate_name,
        toks: &toks,
        module: file_module_path(&file.path),
        out: &mut out,
    };
    let mut pos = 0;
    walker.items(&mut pos, usize::MAX, None);
    out
}

struct Walker<'a> {
    file: &'a ScannedFile,
    file_idx: usize,
    crate_name: &'a str,
    toks: &'a [Tok],
    module: Vec<String>,
    out: &'a mut FileItems,
}

impl Walker<'_> {
    fn text(&self, i: usize) -> &str {
        self.toks[i].text(&self.file.masked)
    }

    /// Parses items until `end_tok` (exclusive) or a closing `}` at this
    /// nesting level. `self_type` is the enclosing `impl`/`trait` type.
    fn items(&mut self, pos: &mut usize, end_tok: usize, self_type: Option<&str>) {
        let mut pending_pub = false;
        while *pos < self.toks.len().min(end_tok) {
            let i = *pos;
            match (self.toks[i].kind, self.text(i)) {
                (TokKind::Punct, "#") => {
                    *pos = self.skip_attribute(i);
                    continue; // attributes do not reset a pending `pub`
                }
                (TokKind::Ident, "pub") => {
                    *pos += 1;
                    if self.peek_text(*pos) == Some("(") {
                        // `pub(crate)` / `pub(super)`: not externally public.
                        *pos = self.skip_balanced(*pos, "(", ")");
                    } else {
                        pending_pub = true;
                        continue;
                    }
                    continue;
                }
                (TokKind::Ident, "fn") => {
                    *pos = self.parse_fn(i, pending_pub, self_type);
                }
                (TokKind::Ident, "mod") => {
                    *pos = self.parse_mod(i, self_type);
                }
                (TokKind::Ident, "struct") => {
                    *pos = self.parse_struct(i);
                }
                (TokKind::Ident, "impl") => {
                    *pos = self.parse_impl_or_trait(i, false);
                }
                (TokKind::Ident, "trait") => {
                    *pos = self.parse_impl_or_trait(i, true);
                }
                (TokKind::Ident, "use") => {
                    *pos = self.parse_use(i);
                }
                (TokKind::Ident, "enum") => {
                    if let Some(name) = self.peek_text(i + 1) {
                        self.push_struct(name.to_string(), Vec::new(), true);
                    }
                    *pos = self.skip_to_block_or_semi(i + 1);
                }
                (TokKind::Ident, "union") => {
                    *pos = self.skip_to_block_or_semi(i + 1);
                }
                (TokKind::Ident, "unsafe" | "async" | "extern") => {
                    // Fn qualifiers: step over, keeping any pending `pub`.
                    *pos += 1;
                    continue;
                }
                (TokKind::Ident, "const")
                    if matches!(
                        self.peek_text(i + 1),
                        Some("fn" | "unsafe" | "async" | "extern")
                    ) =>
                {
                    *pos += 1; // `const fn`: a qualifier, not a const item
                    continue;
                }
                (TokKind::Ident, "type") if self_type.is_none() => {
                    *pos = self.parse_type_alias(i);
                }
                (TokKind::Ident, "const" | "static" | "type") => {
                    *pos = self.skip_statement(i + 1);
                }
                (TokKind::Ident, "macro_rules") => {
                    *pos = self.skip_to_block_or_semi(i + 1);
                }
                (TokKind::Punct, "{") => {
                    // An unexpected block at item level (e.g. `extern {}`):
                    // skip it wholesale.
                    *pos = self.skip_balanced(i, "{", "}");
                }
                (TokKind::Punct, "}") => {
                    *pos += 1;
                    return; // end of the enclosing block
                }
                _ => *pos += 1,
            }
            pending_pub = false;
        }
    }

    fn peek_text(&self, i: usize) -> Option<&str> {
        (i < self.toks.len()).then(|| self.text(i))
    }

    /// `#` `[` … `]` (and `#![…]`): returns the index after the attribute.
    fn skip_attribute(&self, i: usize) -> usize {
        let mut j = i + 1;
        if self.peek_text(j) == Some("!") {
            j += 1;
        }
        if self.peek_text(j) == Some("[") {
            return self.skip_balanced(j, "[", "]");
        }
        i + 1
    }

    /// From an opening delimiter at `i`, returns the index after its match.
    fn skip_balanced(&self, i: usize, open: &str, close: &str) -> usize {
        let mut depth = 0usize;
        let mut j = i;
        while j < self.toks.len() {
            let t = self.text(j);
            if t == open {
                depth += 1;
            } else if t == close {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        self.toks.len()
    }

    /// Skips to just past the terminating `;`, stepping over any balanced
    /// `{}`/`()`/`[]` groups on the way (const/static initializers).
    fn skip_statement(&self, mut j: usize) -> usize {
        while j < self.toks.len() {
            match self.text(j) {
                ";" => return j + 1,
                "{" => j = self.skip_balanced(j, "{", "}"),
                "(" => j = self.skip_balanced(j, "(", ")"),
                "[" => j = self.skip_balanced(j, "[", "]"),
                "}" => return j, // ill-formed; stop at enclosing close
                _ => j += 1,
            }
        }
        j
    }

    /// Skips to past the first top-level `{…}` block or `;`.
    fn skip_to_block_or_semi(&self, mut j: usize) -> usize {
        while j < self.toks.len() {
            match self.text(j) {
                "{" => return self.skip_balanced(j, "{", "}"),
                ";" => return j + 1,
                "(" => j = self.skip_balanced(j, "(", ")"),
                "[" => j = self.skip_balanced(j, "[", "]"),
                _ => j += 1,
            }
        }
        j
    }

    /// Parses `fn name … { body }`, recording the item; returns the index
    /// after the body (or the `;` of a bodyless trait signature).
    fn parse_fn(&mut self, i: usize, is_pub: bool, self_type: Option<&str>) -> usize {
        let name_idx = i + 1;
        let Some(name) =
            self.peek_text(name_idx).filter(|_| self.toks[name_idx].kind == TokKind::Ident)
        else {
            return i + 1; // `fn(` pointer type or malformed — not an item
        };
        let name = name.to_string();
        // Find the body `{` or terminating `;`, tracking angle depth so a
        // `{` inside const generics cannot fool us. `->` return types are
        // captured on the way.
        let mut j = name_idx + 1;
        let mut angle = 0i32;
        let mut ret = String::new();
        let mut in_ret = false;
        let mut body_open = None;
        while j < self.toks.len() {
            let t = self.text(j);
            match t {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "->" => in_ret = true,
                "where" => in_ret = false,
                "(" => {
                    // Parameter list or a parenthesized type: step over it
                    // but keep it in the return text when applicable.
                    let end = self.skip_balanced(j, "(", ")");
                    if in_ret {
                        for k in j..end.min(self.toks.len()) {
                            ret.push_str(self.text(k));
                        }
                    }
                    j = end;
                    continue;
                }
                "{" if angle == 0 => {
                    body_open = Some(j);
                    break;
                }
                ";" if angle == 0 => {
                    return j + 1; // bodyless trait method
                }
                _ => {
                    if in_ret {
                        ret.push_str(t);
                    }
                }
            }
            j += 1;
        }
        let Some(open) = body_open else { return self.toks.len() };
        let after = self.skip_balanced(open, "{", "}");
        let body_end = if after > 0 && after <= self.toks.len() {
            self.toks[after - 1].end
        } else {
            self.file.masked.len()
        };
        self.out.fns.push(FnItem {
            file: self.file_idx,
            crate_name: self.crate_name.to_string(),
            module: self.module.clone(),
            self_type: self_type.map(str::to_string),
            name,
            is_pub,
            is_test: self.file.in_test_code(self.toks[i].start),
            body: (self.toks[open].start, body_end),
            sig: (self.toks[i].start, self.toks[open].start),
            ret,
        });
        after
    }

    /// `type Name<…> = Target<…>;`: records the alias, returns the index
    /// after the `;`.
    fn parse_type_alias(&mut self, i: usize) -> usize {
        let end = self.skip_statement(i + 1);
        let name = self.peek_text(i + 1).filter(|_| self.toks[i + 1].kind == TokKind::Ident);
        let eq = (i + 2..end).find(|&j| self.text(j) == "=");
        if let (Some(name), Some(eq)) = (name, eq) {
            let target: String = (eq + 1..end.saturating_sub(1)).map(|j| self.text(j)).collect();
            let target = crate::callgraph::peel_type(&target);
            self.out.aliases.push(TypeAlias { name: name.to_string(), target });
        }
        end
    }

    /// `mod name { … }` (recursing with the name pushed) or `mod name;`.
    fn parse_mod(&mut self, i: usize, self_type: Option<&str>) -> usize {
        let name_idx = i + 1;
        let Some(name) = self.peek_text(name_idx) else { return i + 1 };
        let name = name.to_string();
        let mut j = name_idx + 1;
        while j < self.toks.len() {
            match self.text(j) {
                ";" => return j + 1,
                "{" => {
                    self.module.push(name);
                    let mut pos = j + 1;
                    self.items(&mut pos, usize::MAX, self_type);
                    self.module.pop();
                    return pos;
                }
                _ => j += 1,
            }
        }
        j
    }

    /// `struct Name { fields }` / `struct Name(…);` / `struct Name;`.
    fn parse_struct(&mut self, i: usize) -> usize {
        let name_idx = i + 1;
        let Some(name) = self.peek_text(name_idx) else { return i + 1 };
        let name = name.to_string();
        let mut j = name_idx + 1;
        let mut angle = 0i32;
        while j < self.toks.len() {
            match self.text(j) {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                ";" if angle == 0 => {
                    self.push_struct(name, Vec::new(), false);
                    return j + 1;
                }
                "(" => {
                    let end = self.skip_balanced(j, "(", ")");
                    // Tuple struct: `struct X(A, B);` — no named fields.
                    let after = self.skip_statement(end);
                    self.push_struct(name, Vec::new(), false);
                    return after;
                }
                "{" if angle == 0 => {
                    let end = self.skip_balanced(j, "{", "}");
                    let fields = self.parse_fields(j + 1, end.saturating_sub(1));
                    self.push_struct(name, fields, false);
                    return end;
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    fn push_struct(&mut self, name: String, fields: Vec<(String, String)>, is_enum: bool) {
        self.out.structs.push(StructItem {
            file: self.file_idx,
            crate_name: self.crate_name.to_string(),
            module: self.module.clone(),
            name,
            fields,
            is_enum,
        });
    }

    /// Parses `name: Type` fields between token indices `[from, to)`,
    /// splitting on top-level commas.
    fn parse_fields(&self, from: usize, to: usize) -> Vec<(String, String)> {
        let mut fields = Vec::new();
        let mut j = from;
        while j < to {
            // Skip attributes and visibility on the field.
            while j < to && self.text(j) == "#" {
                j = self.skip_attribute(j);
            }
            if j < to && self.text(j) == "pub" {
                j += 1;
                if j < to && self.text(j) == "(" {
                    j = self.skip_balanced(j, "(", ")");
                }
            }
            if j >= to || self.toks[j].kind != TokKind::Ident {
                break;
            }
            let fname = self.text(j).to_string();
            if self.peek_text(j + 1) != Some(":") {
                break;
            }
            j += 2;
            let mut depth = 0i32;
            let mut ty = String::new();
            while j < to {
                let t = self.text(j);
                match t {
                    "<" | "(" | "[" => depth += 1,
                    ">" | ")" | "]" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
                ty.push_str(t);
                j += 1;
            }
            fields.push((fname, ty));
            j += 1; // past the comma
        }
        fields
    }

    /// `impl [<…>] [Trait for] Type [where …] { items }` or
    /// `trait Name { items }`: recurses into the body with the type name
    /// as `self_type`.
    fn parse_impl_or_trait(&mut self, i: usize, is_trait: bool) -> usize {
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while j < self.toks.len() {
            let t = self.text(j);
            match t {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "for" if angle == 0 => saw_for = true,
                "where" if angle == 0 => {
                    // The where clause may mention many idents; the type
                    // name is already settled.
                    j = self.skip_where(j);
                    continue;
                }
                "{" if angle == 0 => {
                    let ty = after_for.or(last_ident);
                    let mut pos = j + 1;
                    self.items(&mut pos, usize::MAX, ty.as_deref());
                    return pos;
                }
                ";" if angle == 0 => return j + 1, // `impl Trait for Type;`-ish
                "(" => {
                    j = self.skip_balanced(j, "(", ")");
                    continue;
                }
                _ => {
                    if self.toks[j].kind == TokKind::Ident && angle == 0 && !is_keyword(t) {
                        if saw_for {
                            after_for = Some(t.to_string());
                        } else {
                            last_ident = Some(t.to_string());
                        }
                    }
                }
            }
            j += 1;
        }
        let _ = is_trait;
        j
    }

    /// Skips a `where` clause up to (not past) the opening `{`.
    fn skip_where(&self, mut j: usize) -> usize {
        let mut angle = 0i32;
        while j < self.toks.len() {
            match self.text(j) {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "{" if angle == 0 => return j,
                "(" => {
                    j = self.skip_balanced(j, "(", ")");
                    continue;
                }
                _ => {}
            }
            j += 1;
        }
        j
    }

    /// `use a::b::{c, d as e, *};` — flattens into [`UseEntry`]s.
    fn parse_use(&mut self, i: usize) -> usize {
        let end = self.skip_statement(i + 1);
        self.collect_use(i + 1, end.saturating_sub(1), &mut Vec::new());
        end
    }

    fn collect_use(&mut self, from: usize, to: usize, prefix: &mut Vec<String>) {
        let mut j = from;
        let base_len = prefix.len();
        let mut last: Option<String> = None;
        while j < to {
            let t = self.text(j);
            match t {
                "::" => {
                    if let Some(seg) = last.take() {
                        prefix.push(seg);
                    }
                }
                "{" => {
                    // Group: recurse per comma-separated arm.
                    let group_end = self.skip_balanced(j, "{", "}") - 1;
                    let mut arm_start = j + 1;
                    let mut depth = 0i32;
                    let mut k = j + 1;
                    while k <= group_end {
                        let tt = self.text(k);
                        match tt {
                            "{" => depth += 1,
                            "}" if depth > 0 => depth -= 1,
                            "," if depth == 0 => {
                                self.collect_use(arm_start, k, prefix);
                                arm_start = k + 1;
                            }
                            "}" => {
                                self.collect_use(arm_start, k, prefix);
                                arm_start = k + 1;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    prefix.truncate(base_len);
                    return;
                }
                "*" => {
                    self.push_use("*".to_string(), prefix.clone());
                    prefix.truncate(base_len);
                    return;
                }
                "as" => {
                    // `path as alias`: the alias is the local name.
                    let target_name = last.take();
                    let alias = self.peek_text(j + 1).unwrap_or("_").to_string();
                    let mut target = prefix.clone();
                    if let Some(n) = target_name {
                        target.push(n);
                    }
                    self.push_use_with_target(alias, target);
                    prefix.truncate(base_len);
                    return;
                }
                _ if self.toks[j].kind == TokKind::Ident => {
                    last = Some(t.to_string());
                }
                _ => {}
            }
            j += 1;
        }
        if let Some(seg) = last {
            let mut target = prefix.clone();
            target.push(seg.clone());
            self.push_use_with_target(seg, target);
        }
        prefix.truncate(base_len);
    }

    fn push_use(&mut self, local: String, target: Vec<String>) {
        self.push_use_with_target(local, target);
    }

    fn push_use_with_target(&mut self, local: String, target: Vec<String>) {
        self.out.uses.push(UseEntry {
            file: self.file_idx,
            module: self.module.clone(),
            local,
            target,
        });
    }
}

fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "for"
            | "where"
            | "impl"
            | "dyn"
            | "pub"
            | "unsafe"
            | "const"
            | "mut"
            | "crate"
            | "self"
            | "super"
            | "as"
            | "in"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extract_src(path: &str, src: &str) -> FileItems {
        let file = ScannedFile::new(path, src);
        extract(&file, 0, "demo")
    }

    #[test]
    fn file_module_paths() {
        assert!(file_module_path("crates/serve/src/lib.rs").is_empty());
        assert_eq!(file_module_path("crates/serve/src/frontend.rs"), vec!["frontend"]);
        assert_eq!(file_module_path("crates/fdm/src/solver/mod.rs"), vec!["solver"]);
        assert_eq!(file_module_path("crates/fdm/src/solver/cg.rs"), vec!["solver", "cg"]);
        assert!(file_module_path("src/main.rs").is_empty());
        assert!(file_module_path("crates/bench/src/bin/table1.rs").is_empty());
    }

    #[test]
    fn extracts_free_fns_with_visibility() {
        let items = extract_src(
            "crates/demo/src/lib.rs",
            "pub fn a() { b(); }\nfn b() {}\npub(crate) fn c() {}\n",
        );
        let names: Vec<_> = items.fns.iter().map(|f| (f.name.as_str(), f.is_pub)).collect();
        assert_eq!(names, vec![("a", true), ("b", false), ("c", false)]);
        assert_eq!(items.fns[0].qualified(), "demo::a");
    }

    #[test]
    fn extracts_methods_with_impl_type() {
        let src = "struct Pool { q: u32 }\nimpl Pool {\n pub fn new() -> Self { Pool { q: 0 } }\n fn run(&self) {}\n}\nimpl Drop for Pool { fn drop(&mut self) {} }\n";
        let items = extract_src("crates/demo/src/pool.rs", src);
        let q: Vec<_> = items.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(
            q,
            vec!["demo::pool::Pool::new", "demo::pool::Pool::run", "demo::pool::Pool::drop"]
        );
        assert!(items.fns[0].is_pub);
        assert!(items.fns[0].ret.contains("Self"));
    }

    #[test]
    fn extracts_struct_fields_with_types() {
        let src = "pub struct Queue { state: Mutex<QueueState>, ready: Condvar, n: usize }\nstruct Unit;\nstruct Tup(u32);\n";
        let items = extract_src("crates/demo/src/lib.rs", src);
        assert_eq!(items.structs.len(), 3);
        let q = &items.structs[0];
        assert_eq!(q.fields[0], ("state".to_string(), "Mutex<QueueState>".to_string()));
        assert_eq!(q.fields[1], ("ready".to_string(), "Condvar".to_string()));
        assert_eq!(q.fields[2].0, "n");
    }

    #[test]
    fn inline_modules_nest_paths() {
        let src = "mod inner { pub fn deep() {} mod deeper { fn deepest() {} } }\n";
        let items = extract_src("crates/demo/src/lib.rs", src);
        let q: Vec<_> = items.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(q, vec!["demo::inner::deep", "demo::inner::deeper::deepest"]);
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n #[test]\n fn t() {}\n}\n";
        let items = extract_src("crates/demo/src/lib.rs", src);
        assert_eq!(items.fns.len(), 2);
        assert!(!items.fns[0].is_test);
        assert!(items.fns[1].is_test);
    }

    #[test]
    fn use_declarations_flatten_groups_aliases_and_globs() {
        let src = "use std::sync::{Arc, Mutex as Mu};\nuse crate::frontend::submit;\nuse super::helpers::*;\n";
        let items = extract_src("crates/demo/src/lib.rs", src);
        let m: Vec<_> =
            items.uses.iter().map(|u| (u.local.as_str(), u.target.join("::"))).collect();
        assert!(m.contains(&("Arc", "std::sync::Arc".to_string())), "{m:?}");
        assert!(m.contains(&("Mu", "std::sync::Mutex".to_string())), "{m:?}");
        assert!(m.contains(&("submit", "crate::frontend::submit".to_string())), "{m:?}");
        assert!(m.contains(&("*", "super::helpers".to_string())), "{m:?}");
    }

    #[test]
    fn module_level_type_aliases_are_recorded() {
        let src = "pub type PowerMapExperiment = Experiment<PowerMap>;\n\
                   pub type Job<'s> = Box<Worker<'s>>;\n\
                   impl Iterator for It { type Item = u32; fn next(&mut self) {} }\n";
        let items = extract_src("crates/demo/src/lib.rs", src);
        let a: Vec<_> =
            items.aliases.iter().map(|a| (a.name.as_str(), a.target.as_str())).collect();
        assert_eq!(a, vec![("PowerMapExperiment", "Experiment"), ("Job", "Worker")]);
        assert_eq!(items.fns.len(), 1);
    }

    #[test]
    fn return_types_are_recorded() {
        let src = "impl Q { fn lock(&self) -> MutexGuard<'_, Inner<T>> { self.inner.lock() } }\nfn free() -> Result<u32, String> { Ok(1) }\n";
        let items = extract_src("crates/demo/src/lib.rs", src);
        assert!(items.fns[0].ret.contains("MutexGuard"), "{}", items.fns[0].ret);
        assert!(items.fns[1].ret.contains("Result"), "{}", items.fns[1].ret);
    }

    #[test]
    fn impl_headers_with_generics_and_where_clauses() {
        let src = "impl<T: Clone> Holder<T> where T: Send { fn get(&self) {} }\nimpl Iterator for ChunkIter<'_> { fn next(&mut self) -> Option<u32> { None } }\n";
        let items = extract_src("crates/demo/src/lib.rs", src);
        let q: Vec<_> = items.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(q, vec!["demo::Holder::get", "demo::ChunkIter::next"]);
    }

    #[test]
    fn trait_default_methods_are_recorded_and_signatures_skipped() {
        let src =
            "pub trait Trainable { fn step(&mut self);\n fn run(&mut self) { self.step(); } }\n";
        let items = extract_src("crates/demo/src/lib.rs", src);
        let q: Vec<_> = items.fns.iter().map(FnItem::qualified).collect();
        assert_eq!(q, vec!["demo::Trainable::run"]);
    }
}
