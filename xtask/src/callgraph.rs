//! Conservative workspace call graph over the extracted items.
//!
//! Resolution rules (deliberately over-approximating — a missed edge can
//! hide a reachable panic, a spurious edge only widens a ratchet):
//!
//! * **free calls** `foo(` — functions named `foo` in the same module,
//!   else whatever the module's `use` map binds `foo` to, else any free
//!   `foo` in the same crate;
//! * **path calls** `a::b::foo(` — every function whose qualified path
//!   ends with the called segments (`deepoheat_x` prefixes normalize to
//!   the short crate name, `crate`/`self`/`super` heads are dropped); a
//!   path passed as an argument (`filter_map(Record::parse)`) counts as a
//!   call;
//! * **method calls** `recv.foo(` — if the receiver chain types to a
//!   workspace struct, that type's `foo` methods; if it types to a
//!   *known-external* type (e.g. `Condvar`), no edge; only a receiver we
//!   cannot type at all falls back to **every** same-named method in the
//!   workspace — except for ubiquitous std names
//!   ([`FALLBACK_STOPLIST`]), where an untyped receiver is almost
//!   always a std container/guard and the fallback would wire, say,
//!   every `vec.push(x)` to `CooMatrix::push`.
//!
//! A receiver that types to a workspace enum, and a stoplisted call on an
//! untyped receiver, link no edge: their candidates go to
//! [`CallSite::loose`], which only the uncalled-function report reads.
//! Linking enum receivers would tie `TrunkBasis::combine` to `Matrix::add`
//! through `Epilogue::apply`'s untyped `offset.add(…)`, a path no run
//! takes.
//!
//! A module-level `type` alias stands for its target's head type in paths
//! and receiver types (`PowerMapExperiment::new` → `Experiment::new`).
//!
//! Only non-test library functions are call targets. Test functions and
//! the functions of binaries, examples and tests are callers only: their
//! call sites are resolved, for the report of public functions nothing
//! outside tests calls ([`crate::uncalled`]), but nothing calls them and
//! their structs type no receivers, so the panic-reach and lock-order
//! passes, which read non-test library functions only, see the library
//! graph alone.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::{self, FileItems, FnItem, StructItem, UseEntry, CALL_KEYWORDS};
use crate::lexer::{lex, Tok, TokKind};
use crate::lints::{FileClass, FileKind};
use crate::scanner::ScannedFile;

/// Method names so common on std containers, guards, iterators, and
/// numerics that an *untypeable* receiver calling one is almost certainly
/// not a workspace method. The all-same-named-methods fallback is
/// suppressed for these: the spurious edges it would add (every
/// `vec.push(…)` → `CooMatrix::push`, every `guard.flush()` →
/// `JsonlSink::flush`) drown both the panic-reachability and lock-order
/// passes in false positives. Workspace methods sharing these names are
/// still resolved whenever the receiver can be typed (a `self` chain, an
/// annotated local/param, or a `let x = Type::new(…)` constructor).
pub const FALLBACK_STOPLIST: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "as_str",
    "chain",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "contains_key",
    "count",
    "dedup",
    "drain",
    "extend",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "exp",
    "filter",
    "find",
    "first",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_ref",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "ln",
    "load",
    "lock",
    "map",
    "map_err",
    "max",
    "min",
    "ne",
    "next",
    "notify_all",
    "notify_one",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "parse",
    "partial_cmp",
    "pop",
    "pop_back",
    "pop_front",
    "position",
    "powf",
    "powi",
    "product",
    "push",
    "push_back",
    "push_front",
    "read",
    "recv",
    "remove",
    "replace",
    "retain",
    "rev",
    "round",
    "send",
    "sort",
    "sort_by",
    "sort_by_key",
    "split",
    "sqrt",
    "starts_with",
    "store",
    "sum",
    "swap",
    "take",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_lock",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "values",
    "wait",
    "write",
    "write_all",
    "zip",
];

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(…)`.
    Free,
    /// `a::b::foo(…)` — `path` holds the leading segments.
    Path(Vec<String>),
    /// `recv.foo(…)` — `chain` holds the receiver idents, innermost first
    /// (`self.queue.state.lock()` → `["self", "queue", "state"]`).
    Method(Vec<String>),
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Byte offset of the callee name token.
    pub offset: usize,
    pub name: String,
    pub kind: CallKind,
    /// Resolved candidate callees (indices into [`Workspace::fns`]).
    pub targets: Vec<usize>,
    /// Callees the call may reach that `targets` leaves out: the methods of
    /// an enum receiver, and the same-named methods behind a stoplisted
    /// call on an untyped receiver. Only the report of uncalled functions
    /// reads them, so it lists none the call might reach.
    pub loose: Vec<usize>,
}

/// The fully-resolved workspace: files, symbols, and the call graph.
pub struct Workspace {
    pub files: Vec<ScannedFile>,
    pub classes: Vec<FileClass>,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    pub uses: Vec<UseEntry>,
    /// Call sites per function, parallel to `fns`.
    pub calls: Vec<Vec<CallSite>>,
    /// Adjacency: callee ids per function, deduplicated and sorted.
    pub edges: Vec<BTreeSet<usize>>,
    fn_by_name: BTreeMap<String, Vec<usize>>,
    method_by_name: BTreeMap<String, Vec<usize>>,
    struct_by_name: BTreeMap<String, Vec<usize>>,
    /// Names of library enums.
    enums: BTreeSet<String>,
    /// Library type aliases with one target across the workspace.
    alias_target: BTreeMap<String, String>,
}

impl Workspace {
    /// Builds the symbol table and call graph from already-scanned files.
    /// `classes` must be parallel to `files`. Only library files define
    /// call targets and receiver types; the others are callers only.
    pub fn build(files: Vec<ScannedFile>, classes: Vec<FileClass>) -> Self {
        let mut fns = Vec::new();
        let mut structs = Vec::new();
        let mut uses = Vec::new();
        let mut aliases: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (idx, (file, class)) in files.iter().zip(&classes).enumerate() {
            let FileItems { fns: f, structs: s, uses: u, aliases: a } =
                items::extract(file, idx, &class.crate_name);
            fns.extend(f);
            structs.extend(s);
            uses.extend(u);
            if class.kind == FileKind::Library {
                for alias in a {
                    aliases.entry(alias.name).or_default().insert(alias.target);
                }
            }
        }
        let alias_target = aliases
            .into_iter()
            .filter(|(_, targets)| targets.len() == 1)
            .filter_map(|(name, targets)| Some((name, targets.into_iter().next()?)))
            .collect();

        let mut fn_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut method_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, f) in fns.iter().enumerate() {
            if f.is_test || classes[f.file].kind != FileKind::Library {
                continue;
            }
            fn_by_name.entry(f.name.clone()).or_default().push(id);
            if f.self_type.is_some() {
                method_by_name.entry(f.name.clone()).or_default().push(id);
            }
        }
        let mut struct_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut enums = BTreeSet::new();
        for (id, s) in structs.iter().enumerate() {
            if classes[s.file].kind != FileKind::Library {
                continue;
            }
            if s.is_enum {
                enums.insert(s.name.clone());
            } else {
                struct_by_name.entry(s.name.clone()).or_default().push(id);
            }
        }

        let mut ws = Workspace {
            files,
            classes,
            fns,
            structs,
            uses,
            calls: Vec::new(),
            edges: Vec::new(),
            fn_by_name,
            method_by_name,
            struct_by_name,
            enums,
            alias_target,
        };
        ws.calls = (0..ws.fns.len()).map(|id| ws.extract_calls(id)).collect();
        ws.edges = ws
            .calls
            .iter()
            .map(|sites| sites.iter().flat_map(|s| s.targets.iter().copied()).collect())
            .collect();
        ws
    }

    /// Whether function `id` is non-test library code: a call target, and
    /// what the panic-reach and lock-order passes read.
    pub fn is_library(&self, id: usize) -> bool {
        let f = &self.fns[id];
        !f.is_test && self.classes[f.file].kind == FileKind::Library
    }

    /// Number of resolved call edges out of non-test library functions.
    pub fn edge_count(&self) -> usize {
        (0..self.fns.len()).filter(|&id| self.is_library(id)).map(|id| self.edges[id].len()).sum()
    }

    /// Function ids whose qualified id equals `qualified`.
    pub fn fn_by_qualified(&self, qualified: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.qualified() == qualified)
    }

    /// The ids of every function that can transitively reach one of
    /// `seeds` (including the seeds themselves): a reverse BFS.
    pub fn reaches(&self, seeds: &BTreeSet<usize>) -> Vec<bool> {
        let mut redges: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (from, outs) in self.edges.iter().enumerate() {
            for &to in outs {
                redges[to].push(from);
            }
        }
        let mut hit = vec![false; self.fns.len()];
        let mut queue: Vec<usize> = seeds.iter().copied().collect();
        for &s in seeds {
            hit[s] = true;
        }
        while let Some(id) = queue.pop() {
            for &pred in &redges[id] {
                if !hit[pred] {
                    hit[pred] = true;
                    queue.push(pred);
                }
            }
        }
        hit
    }

    /// A shortest call path from `from` to any function in `goal`,
    /// inclusive of both ends. `None` if unreachable.
    pub fn path_to(&self, from: usize, goal: &BTreeSet<usize>) -> Option<Vec<usize>> {
        let mut prev: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut seen = vec![false; self.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(from);
        seen[from] = true;
        while let Some(id) = queue.pop_front() {
            if goal.contains(&id) {
                let mut path = vec![id];
                let mut cur = id;
                while let Some(p) = prev[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for &next in &self.edges[id] {
                if !seen[next] {
                    seen[next] = true;
                    prev[next] = Some(id);
                    queue.push_back(next);
                }
            }
        }
        None
    }

    // --- call extraction -------------------------------------------------

    fn extract_calls(&self, fn_id: usize) -> Vec<CallSite> {
        let f = &self.fns[fn_id];
        let file = &self.files[f.file];
        let toks = lex(&file.masked[f.body.0..f.body.1]);
        let base = f.body.0;
        let mut sites = Vec::new();
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident {
                continue;
            }
            let name = tok_text(&toks[i], &file.masked, base);
            if CALL_KEYWORDS.contains(&name) {
                continue;
            }
            let next = toks.get(i + 1).map(|t| tok_text(t, &file.masked, base));
            let prev = i.checked_sub(1).map(|j| tok_text(&toks[j], &file.masked, base));
            let kind = match (prev, next) {
                (Some("."), Some("(")) => {
                    CallKind::Method(receiver_chain(&toks, i, &file.masked, base))
                }
                (Some("::"), Some("(")) => {
                    CallKind::Path(path_segments(&toks, i, &file.masked, base))
                }
                // A function passed by path (`filter_map(Record::parse)`)
                // is called wherever it is passed to.
                (Some("::"), Some("," | ")" | ";"))
                    if name.starts_with(|c: char| c.is_ascii_lowercase()) =>
                {
                    CallKind::Path(path_segments(&toks, i, &file.masked, base))
                }
                (_, Some("(")) => CallKind::Free,
                _ => continue,
            };
            let name = name.to_string();
            let (targets, loose) = self.resolve(fn_id, &name, &kind);
            sites.push(CallSite { offset: base + toks[i].start, name, kind, targets, loose });
        }
        sites
    }

    /// The call's targets and its loose candidates ([`CallSite::loose`]).
    fn resolve(&self, fn_id: usize, name: &str, kind: &CallKind) -> (Vec<usize>, Vec<usize>) {
        let caller = &self.fns[fn_id];
        let (mut out, loose) = match kind {
            CallKind::Free => (self.resolve_free(caller, name), Vec::new()),
            CallKind::Path(segs) => (self.resolve_path(segs, name), Vec::new()),
            CallKind::Method(chain) => self.resolve_method(fn_id, chain, name),
        };
        out.retain(|&id| id != fn_id);
        out.sort_unstable();
        out.dedup();
        (out, loose)
    }

    fn resolve_free(&self, caller: &FnItem, name: &str) -> Vec<usize> {
        let Some(candidates) = self.fn_by_name.get(name) else { return Vec::new() };
        // Same module, free functions first.
        let same_module: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&id| {
                let f = &self.fns[id];
                f.self_type.is_none()
                    && f.crate_name == caller.crate_name
                    && f.module == caller.module
            })
            .collect();
        if !same_module.is_empty() {
            return same_module;
        }
        // A `use` binding for the bare name.
        for entry in &self.uses {
            if entry.file == caller.file && entry.module == caller.module && entry.local == name {
                let hits = self.resolve_path_suffix(&entry.target);
                if !hits.is_empty() {
                    return hits;
                }
            }
        }
        // Any free fn of that name in the same crate.
        candidates
            .iter()
            .copied()
            .filter(|&id| {
                let f = &self.fns[id];
                f.self_type.is_none() && f.crate_name == caller.crate_name
            })
            .collect()
    }

    fn resolve_path(&self, segs: &[String], name: &str) -> Vec<usize> {
        let mut full = segs.to_vec();
        full.push(name.to_string());
        self.resolve_path_suffix(&full)
    }

    /// Functions whose qualified segments end with `suffix`.
    /// `deepoheat_x` crate prefixes normalize to the short crate name (the
    /// core crate, `deepoheat`, to `core`) and `crate`/`self`/`super` heads
    /// are dropped before matching. A path that matches nothing and starts
    /// at a crate name names a re-export (`deepoheat_linalg::block_cg`): it
    /// matches that crate's functions of the same name, and of the same
    /// type when the segment before the name is a type.
    fn resolve_path_suffix(&self, suffix: &[String]) -> Vec<usize> {
        let mut suffix: Vec<String> = suffix
            .iter()
            .filter(|s| !matches!(s.as_str(), "crate" | "self" | "super"))
            .map(|s| match s.as_str() {
                "deepoheat" => "core".to_string(),
                _ => s.strip_prefix("deepoheat_").unwrap_or(s).to_string(),
            })
            .collect();
        if let Some(ty) = suffix.len().checked_sub(2).and_then(|i| suffix.get_mut(i)) {
            *ty = self.unalias(std::mem::take(ty));
        }
        let Some(name) = suffix.last() else { return Vec::new() };
        let Some(candidates) = self.fn_by_name.get(name.as_str()) else { return Vec::new() };
        let ends_with = |id: usize, tail: &[String]| {
            let segs = self.fns[id].segments();
            segs.len() >= tail.len() && segs[segs.len() - tail.len()..] == tail[..]
        };
        let exact: Vec<usize> =
            candidates.iter().copied().filter(|&id| ends_with(id, &suffix)).collect();
        if !exact.is_empty() || suffix.len() < 2 {
            return exact;
        }
        let ty = (suffix.len() > 2)
            .then(|| &suffix[suffix.len() - 2])
            .filter(|s| s.starts_with(|c: char| c.is_ascii_uppercase()));
        candidates
            .iter()
            .copied()
            .filter(|&id| {
                let f = &self.fns[id];
                f.crate_name == suffix[0] && f.self_type.as_ref() == ty
            })
            .collect()
    }

    fn resolve_method(
        &self,
        fn_id: usize,
        chain: &[String],
        name: &str,
    ) -> (Vec<usize>, Vec<usize>) {
        let same_named = || self.method_by_name.get(name).cloned().unwrap_or_default();
        match self.receiver_type(fn_id, chain) {
            ReceiverType::Struct(ty) => {
                let mut ids = same_named();
                ids.retain(|&id| self.fns[id].self_type.as_deref() == Some(ty.as_str()));
                (ids, Vec::new())
            }
            ReceiverType::Enum(ty) => {
                let mut ids = same_named();
                ids.retain(|&id| self.fns[id].self_type.as_deref() == Some(ty.as_str()));
                (Vec::new(), ids)
            }
            // A concretely-typed external receiver (Condvar, Vec, …):
            // its methods live outside the workspace.
            ReceiverType::External => (Vec::new(), Vec::new()),
            ReceiverType::Unknown if FALLBACK_STOPLIST.contains(&name) => {
                (Vec::new(), same_named())
            }
            ReceiverType::Unknown => (same_named(), Vec::new()),
        }
    }

    /// Types a receiver chain: `self.queue.state` starts at the enclosing
    /// impl type and walks field types, peeling `Arc`/`Box`/`Rc`/`&`.
    fn receiver_type(&self, fn_id: usize, chain: &[String]) -> ReceiverType {
        let caller = &self.fns[fn_id];
        let (mut cur, rest): (String, &[String]) = match chain.first().map(String::as_str) {
            Some("self") => match &caller.self_type {
                Some(t) => (t.clone(), &chain[1..]),
                None => return ReceiverType::Unknown,
            },
            Some(head) => {
                // A local variable or parameter with an explicit type.
                match self.local_type(fn_id, head) {
                    Some(ty) => (ty, &chain[1..]),
                    None => return ReceiverType::Unknown,
                }
            }
            None => return ReceiverType::Unknown,
        };
        for seg in rest {
            let Some(sid) = self.struct_in_crate(&cur, &caller.crate_name) else {
                return if self.struct_by_name.contains_key(&cur) {
                    ReceiverType::Unknown // ambiguous cross-crate struct
                } else {
                    ReceiverType::External
                };
            };
            let s = &self.structs[sid];
            let Some((_, ty)) = s.fields.iter().find(|(n, _)| n == seg) else {
                return ReceiverType::External; // not a field ⇒ std/deref territory
            };
            cur = self.unalias(peel_type(ty));
        }
        if self.struct_in_crate(&cur, &caller.crate_name).is_some()
            || self.struct_by_name.contains_key(&cur)
        {
            ReceiverType::Struct(cur)
        } else if self.enums.contains(&cur) {
            ReceiverType::Enum(cur)
        } else if cur.chars().next().is_some_and(char::is_uppercase) {
            ReceiverType::External
        } else {
            ReceiverType::Unknown
        }
    }

    /// Resolves a receiver chain to the struct field it terminates in,
    /// when every step walks workspace struct fields: returns
    /// `(struct_id, field_name, field_type_text)` for the final segment.
    /// `self.queue.state` → the `state` field of `Queue` (through the
    /// `queue: Arc<Queue>` field). The lock-order pass uses this to give
    /// every `Mutex` field a stable identity.
    pub fn chain_final_field(
        &self,
        fn_id: usize,
        chain: &[String],
    ) -> Option<(usize, String, String)> {
        let caller = &self.fns[fn_id];
        let (mut cur, rest): (String, &[String]) = match chain.first().map(String::as_str)? {
            "self" => (caller.self_type.clone()?, &chain[1..]),
            head => (self.local_type(fn_id, head)?, &chain[1..]),
        };
        let mut last = None;
        for seg in rest {
            let sid = self.struct_in_crate(&cur, &caller.crate_name)?;
            let (name, ty) = self.structs[sid].fields.iter().find(|(n, _)| n == seg)?.clone();
            last = Some((sid, name, ty.clone()));
            cur = self.unalias(peel_type(&ty));
        }
        last
    }

    fn struct_in_crate(&self, name: &str, crate_name: &str) -> Option<usize> {
        let ids = self.struct_by_name.get(name)?;
        ids.iter()
            .copied()
            .find(|&id| self.structs[id].crate_name == crate_name)
            .or_else(|| (ids.len() == 1).then_some(ids[0]))
    }

    /// The declared type of a parameter or `let`-annotated local, if the
    /// function spells one out; otherwise the type inferred from a
    /// constructor-style initializer (`let x = Type::new(…)`).
    fn local_type(&self, fn_id: usize, var: &str) -> Option<String> {
        let f = &self.fns[fn_id];
        let file = &self.files[f.file];
        for range in [f.sig, f.body] {
            let toks = lex(&file.masked[range.0..range.1]);
            for i in 0..toks.len() {
                if toks[i].kind == TokKind::Ident
                    && tok_text(&toks[i], &file.masked, range.0) == var
                    && toks.get(i + 1).is_some_and(|t| tok_text(t, &file.masked, range.0) == ":")
                {
                    // Concatenate the type tokens up to `,`/`)`/`=`/`;`.
                    let mut ty = String::new();
                    let mut depth = 0i32;
                    for t in &toks[i + 2..] {
                        let s = tok_text(t, &file.masked, range.0);
                        match s {
                            "<" | "(" | "[" => depth += 1,
                            ">" | ")" | "]" if depth > 0 => depth -= 1,
                            "," | ")" | "=" | ";" | "{" if depth == 0 => break,
                            _ => {}
                        }
                        ty.push_str(s);
                    }
                    return Some(self.unalias(peel_type(&ty)));
                }
            }
        }
        self.constructor_type(f, var).map(|ty| self.unalias(ty))
    }

    /// The head type a type name stands for: an alias's target, else the
    /// name itself.
    fn unalias(&self, ty: String) -> String {
        self.alias_target.get(&ty).cloned().unwrap_or(ty)
    }

    /// Infers a local's type from `let [mut] var = [path::]Type::ctor(…)`:
    /// the path segment before the final associated call, when it is
    /// capitalized like a type. Keeps common constructor-built receivers
    /// (`let latch = Latch::new(…)`) typeable without annotations.
    fn constructor_type(&self, f: &FnItem, var: &str) -> Option<String> {
        let file = &self.files[f.file];
        let range = f.body;
        let toks = lex(&file.masked[range.0..range.1]);
        let text = |i: usize| toks.get(i).map(|t| tok_text(t, &file.masked, range.0));
        for i in 0..toks.len() {
            if text(i) != Some("let") {
                continue;
            }
            let mut j = i + 1;
            if text(j) == Some("mut") {
                j += 1;
            }
            if text(j) != Some(var) || text(j + 1) != Some("=") {
                continue;
            }
            // Collect the initializer's leading `a::B::c` path.
            let mut segs: Vec<&str> = Vec::new();
            let mut k = j + 2;
            while toks.get(k).is_some_and(|t| t.kind == TokKind::Ident) {
                segs.push(text(k).unwrap_or(""));
                if text(k + 1) == Some("::") {
                    k += 2;
                } else {
                    break;
                }
            }
            if segs.len() >= 2 {
                let ty = segs[segs.len() - 2];
                if ty.chars().next().is_some_and(char::is_uppercase) {
                    return Some(ty.to_string());
                }
            }
        }
        None
    }
}

enum ReceiverType {
    Struct(String),
    Enum(String),
    External,
    Unknown,
}

/// Strips reference/smart-pointer wrappers from a type text and returns
/// the head type name: `&Arc<Queue>` → `Queue`, `Mutex<T>` → `Mutex`.
/// Works on both spaced (`&mut Vec<u8>`) and token-concatenated
/// (`&mutVec<u8>`) type texts.
pub fn peel_type(ty: &str) -> String {
    let mut t = ty.trim();
    loop {
        t = t.trim_start().trim_start_matches('&').trim_start();
        t = t.trim_start_matches("mut").trim_start();
        if let Some(rest) = t.strip_prefix('\'') {
            // Skip a lifetime: `'a `, `'static`, `'_`.
            let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
            t = rest[end..].trim_start();
            continue;
        }
        let head = head_ident(t);
        if matches!(head, "Arc" | "Box" | "Rc" | "RefCell" | "Cell" | "Pin") {
            if let Some((_, inner)) = t.split_once('<') {
                t = inner;
                continue;
            }
        }
        return head.to_string();
    }
}

fn head_ident(t: &str) -> &str {
    // Last segment of the leading path: `sync::Mutex<..>` → `Mutex`.
    let end = t.find(['<', '>', '(', '[', ',', ' ']).unwrap_or(t.len());
    let path = &t[..end];
    path.rsplit("::").next().unwrap_or(path)
}

fn tok_text<'a>(tok: &Tok, masked: &'a [u8], base: usize) -> &'a str {
    std::str::from_utf8(&masked[base + tok.start..base + tok.end]).unwrap_or("")
}

/// Collects the leading path segments of a `a::b::name(` call, given the
/// index of `name`.
fn path_segments(toks: &[Tok], name_idx: usize, masked: &[u8], base: usize) -> Vec<String> {
    let mut segs = Vec::new();
    let mut j = name_idx;
    // Walk backwards over `seg ::` pairs.
    while j >= 2
        && tok_text(&toks[j - 1], masked, base) == "::"
        && toks[j - 2].kind == TokKind::Ident
    {
        segs.push(tok_text(&toks[j - 2], masked, base).to_string());
        j -= 2;
    }
    segs.reverse();
    segs
}

/// Collects the receiver idents of a `recv.m(` call, innermost-first,
/// given the index of `m`. Stops at anything that is not a plain
/// `ident .` chain (a call result, an index, a literal).
fn receiver_chain(toks: &[Tok], name_idx: usize, masked: &[u8], base: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = name_idx;
    while j >= 2
        && tok_text(&toks[j - 1], masked, base) == "."
        && toks[j - 2].kind == TokKind::Ident
    {
        chain.push(tok_text(&toks[j - 2], masked, base).to_string());
        j -= 2;
    }
    if j >= 1 && tok_text(&toks[j - 1], masked, base) == "." {
        // The chain starts at a non-ident (e.g. `foo().bar.m(`): the
        // receiver's root is unknowable here.
        return Vec::new();
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::classify;

    fn build(sources: &[(&str, &str)]) -> Workspace {
        let files: Vec<ScannedFile> =
            sources.iter().map(|(p, s)| ScannedFile::new(*p, *s)).collect();
        let classes: Vec<FileClass> =
            sources.iter().map(|(p, _)| classify(p).expect("classifiable path")).collect();
        Workspace::build(files, classes)
    }

    fn edge_names(ws: &Workspace, from: &str) -> Vec<String> {
        let id = ws.fn_by_qualified(from).unwrap_or_else(|| panic!("no fn {from}"));
        ws.edges[id].iter().map(|&t| ws.fns[t].qualified()).collect()
    }

    #[test]
    fn free_calls_resolve_within_module_then_crate() {
        let ws = build(&[(
            "crates/fdm/src/solver.rs",
            "pub fn solve() { helper(); }\nfn helper() {}\n",
        )]);
        assert_eq!(edge_names(&ws, "fdm::solver::solve"), vec!["fdm::solver::helper"]);
    }

    #[test]
    fn path_calls_resolve_by_suffix_across_crates() {
        let ws = build(&[
            (
                "crates/serve/src/engine.rs",
                "pub fn infer() { deepoheat_core::model::predict(); }\n",
            ),
            ("crates/core/src/model.rs", "pub fn predict() {}\n"),
        ]);
        assert_eq!(edge_names(&ws, "serve::engine::infer"), vec!["core::model::predict"]);
    }

    #[test]
    fn method_calls_resolve_via_receiver_field_types() {
        let src = "struct Latch { n: u32 }\nimpl Latch { fn wait(&self) {} }\nstruct Queue { state: u32 }\nimpl Queue { fn wait(&self) {} }\nstruct Pool { latch: Arc<Latch> }\nimpl Pool { fn run(&self) { self.latch.wait(); } }\n";
        let ws = build(&[("crates/parallel/src/lib.rs", src)]);
        // Typed receiver: only Latch::wait, not Queue::wait.
        assert_eq!(edge_names(&ws, "parallel::Pool::run"), vec!["parallel::Latch::wait"]);
    }

    #[test]
    fn untyped_receivers_fall_back_to_all_same_named_methods() {
        let src = "struct A;\nimpl A { fn go(&self) {} }\nstruct B;\nimpl B { fn go(&self) {} }\nfn driver(x: &dyn std::any::Any) { mystery().go(); }\nfn mystery() -> A { A }\n";
        let ws = build(&[("crates/core/src/lib.rs", src)]);
        let edges = edge_names(&ws, "core::driver");
        assert!(edges.contains(&"core::A::go".to_string()), "{edges:?}");
        assert!(edges.contains(&"core::B::go".to_string()), "{edges:?}");
    }

    #[test]
    fn stoplisted_names_suppress_the_untyped_fallback() {
        // `buf` is an untypeable local; `.push(…)` must NOT wire to
        // `Coo::push` — but a receiver typed by annotation still does.
        let src = "struct Coo;\nimpl Coo { fn push(&self) {} }\n\
                   fn blur() { let buf = mystery(); buf.push(1); }\n\
                   fn sharp(m: &Coo) { m.push(); }\n\
                   fn mystery() -> Vec<u8> { Vec::new() }\n";
        let ws = build(&[("crates/linalg/src/lib.rs", src)]);
        assert_eq!(edge_names(&ws, "linalg::blur"), vec!["linalg::mystery"]);
        assert_eq!(edge_names(&ws, "linalg::sharp"), vec!["linalg::Coo::push"]);
    }

    #[test]
    fn constructor_initializers_type_unannotated_locals() {
        // `let mut m = Coo::new();` types `m` without an annotation, so
        // the stoplisted `.push` still resolves to the workspace method.
        let src = "struct Coo;\nimpl Coo { fn new() -> Coo { Coo } fn push(&self) {} }\n\
                   fn build() { let mut m = Coo::new(); m.push(); }\n\
                   fn external() { let s = String::new(); s.len(); }\n";
        let ws = build(&[("crates/linalg/src/lib.rs", src)]);
        assert_eq!(edge_names(&ws, "linalg::build"), vec!["linalg::Coo::new", "linalg::Coo::push"]);
        // `String` is external: `.len()` produces no edges.
        assert!(edge_names(&ws, "linalg::external").is_empty());
    }

    #[test]
    fn externally_typed_receivers_produce_no_edges() {
        let src = "struct Latch { done: Condvar }\nstruct Gate;\nimpl Gate { fn wait(&self) {} }\nimpl Latch { fn park(&self) { self.done.wait(); } }\n";
        let ws = build(&[("crates/parallel/src/lib.rs", src)]);
        // `done` types to Condvar (external): Gate::wait must NOT appear.
        assert!(edge_names(&ws, "parallel::Latch::park").is_empty());
    }

    #[test]
    fn use_bindings_resolve_bare_calls_across_crates() {
        let ws = build(&[
            (
                "crates/serve/src/lib.rs",
                "use deepoheat_telemetry::counter;\npub fn tick() { counter(); }\n",
            ),
            ("crates/telemetry/src/lib.rs", "pub fn counter() {}\n"),
        ]);
        assert_eq!(edge_names(&ws, "serve::tick"), vec!["telemetry::counter"]);
    }

    #[test]
    fn aliases_re_exports_and_passed_paths_resolve() {
        let ws = build(&[
            (
                "crates/core/src/experiments/experiment.rs",
                "pub struct Experiment;\nimpl Experiment { pub fn new() {} pub fn parse() {} }\n",
            ),
            (
                "crates/core/src/experiments/power_map.rs",
                "pub type PowerMapExperiment = Experiment<PowerMap>;\n",
            ),
            ("crates/linalg/src/block_cg.rs", "pub fn block_cg() {}\n"),
            (
                "crates/fdm/src/problem.rs",
                "fn solve() { deepoheat::experiments::PowerMapExperiment::new(); \
                 deepoheat_linalg::block_cg(); run(Experiment::parse); }\nfn run() {}\n",
            ),
        ]);
        assert_eq!(
            edge_names(&ws, "fdm::problem::solve"),
            vec![
                "core::experiments::experiment::Experiment::new",
                "core::experiments::experiment::Experiment::parse",
                "linalg::block_cg::block_cg",
                "fdm::problem::run",
            ]
        );
    }

    #[test]
    fn enum_receivers_and_stoplisted_names_only_add_loose_candidates() {
        let src = "pub enum Face { Min }\nimpl Face { fn flip(&self) {} }\n\
                   struct Coo;\nimpl Coo { fn push(&self) {} }\n\
                   fn f(face: Face) { face.flip(); mystery().push(); }\nfn mystery() {}\n";
        let ws = build(&[("crates/fdm/src/lib.rs", src)]);
        assert_eq!(edge_names(&ws, "fdm::f"), vec!["fdm::mystery"]);
        let f = ws.fn_by_qualified("fdm::f").unwrap();
        let loose: Vec<String> = ws.calls[f]
            .iter()
            .flat_map(|site| site.loose.iter().map(|&id| ws.fns[id].qualified()))
            .collect();
        assert_eq!(loose, vec!["fdm::Face::flip", "fdm::Coo::push"]);
    }

    #[test]
    fn test_functions_are_excluded_from_the_graph() {
        let src = "pub fn lib() {}\n#[cfg(test)]\nmod tests { use super::*; #[test] fn t() { lib(); } }\n";
        let ws = build(&[("crates/core/src/lib.rs", src)]);
        let lib = ws.fn_by_qualified("core::lib").unwrap();
        assert!(ws.edges[lib].is_empty());
        assert_eq!(ws.edge_count(), 0);
    }

    #[test]
    fn reachability_and_paths() {
        let src = "pub fn entry() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn lonely() {}\n";
        let ws = build(&[("crates/core/src/lib.rs", src)]);
        let leaf = ws.fn_by_qualified("core::leaf").unwrap();
        let entry = ws.fn_by_qualified("core::entry").unwrap();
        let lonely = ws.fn_by_qualified("core::lonely").unwrap();
        let seeds: BTreeSet<usize> = [leaf].into_iter().collect();
        let hit = ws.reaches(&seeds);
        assert!(hit[entry] && hit[leaf] && !hit[lonely]);
        let path = ws.path_to(entry, &seeds).unwrap();
        let names: Vec<_> = path.iter().map(|&id| ws.fns[id].name.clone()).collect();
        assert_eq!(names, vec!["entry", "mid", "leaf"]);
    }

    #[test]
    fn keywords_and_macro_names_are_not_calls() {
        let src = "pub fn f(x: u32) -> u32 { if (x > 0) { return (x); } panic!(\"no\"); }\n";
        let ws = build(&[("crates/core/src/lib.rs", src)]);
        let f = ws.fn_by_qualified("core::f").unwrap();
        assert!(ws.calls[f].is_empty(), "{:?}", ws.calls[f]);
    }

    #[test]
    fn peel_type_unwraps_smart_pointers() {
        assert_eq!(peel_type("Arc<Queue>"), "Queue");
        assert_eq!(peel_type("&Arc<Box<Pool>>"), "Pool");
        assert_eq!(peel_type("Mutex<QueueState>"), "Mutex");
        assert_eq!(peel_type("sync::Condvar"), "Condvar");
        assert_eq!(peel_type("&mut Vec<u8>"), "Vec");
    }
}
