//! A lexer-free token scanner over Rust source text.
//!
//! The lint passes need three things a plain substring search cannot give
//! them: (1) occurrences inside comments, doc examples and string literals
//! must not count; (2) code under `#[cfg(test)]` / `#[test]` must be
//! separable from library code; (3) the unsafe-audit lint conversely needs
//! the *raw* comment text to find `// SAFETY:` justifications. So the
//! scanner produces a **masked** copy of the source — byte-for-byte the
//! same length, with every comment and literal body replaced by spaces —
//! alongside the raw text and the byte spans of test-only code.

/// A scanned source file: raw text, masked text, and test-code spans.
#[derive(Debug)]
pub struct ScannedFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The file verbatim.
    pub raw: String,
    /// Same length as `raw`; bytes inside comments, string literals and
    /// char literals are replaced by `b' '` (newlines are preserved so
    /// offsets and line numbers stay aligned).
    pub masked: Vec<u8>,
    /// Byte ranges of `#[cfg(test)]` / `#[test]` items (attribute through
    /// the matching closing brace or terminating semicolon).
    pub test_spans: Vec<(usize, usize)>,
}

impl ScannedFile {
    /// Scans `raw`, computing the masked text and test spans.
    pub fn new(path: impl Into<String>, raw: impl Into<String>) -> Self {
        let raw = raw.into();
        let masked = mask_source(raw.as_bytes());
        let test_spans = find_test_spans(&masked);
        ScannedFile { path: path.into(), raw, masked, test_spans }
    }

    /// 1-based line number of a byte offset.
    pub fn line_of(&self, offset: usize) -> usize {
        let end = offset.min(self.raw.len());
        1 + self.raw.as_bytes()[..end].iter().filter(|&&b| b == b'\n').count()
    }

    /// Whether `offset` falls inside test-only code.
    pub fn in_test_code(&self, offset: usize) -> bool {
        self.test_spans.iter().any(|&(start, end)| offset >= start && offset < end)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(usize),
    Char,
}

/// Replaces the bodies of comments and literals with spaces, preserving
/// newlines and byte offsets. Handles nested block comments, escapes in
/// string/char literals, raw strings with any number of `#`s, byte and
/// raw-byte strings, and the `'lifetime`-vs-char-literal ambiguity.
pub fn mask_source(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < src.len() {
        let b = src[i];
        let rest = &src[i..];
        match state {
            State::Code => {
                if rest.starts_with(b"//") {
                    state = State::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if rest.starts_with(b"/*") {
                    state = State::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if let Some(hashes) = raw_string_open(rest) {
                    // r"..", r#".."#, br".." — skip the prefix, mask the body.
                    let prefix = rest.iter().position(|&c| c == b'"').map_or(1, |p| p + 1);
                    state = State::RawStr(hashes);
                    out.extend(std::iter::repeat_n(b' ', prefix));
                    i += prefix;
                } else if b == b'"' || (b == b'b' && rest.get(1) == Some(&b'"')) {
                    let prefix = if b == b'b' { 2 } else { 1 };
                    state = State::Str;
                    out.extend(std::iter::repeat_n(b' ', prefix));
                    i += prefix;
                } else if b == b'\'' {
                    if is_lifetime(rest) {
                        out.push(b);
                        i += 1;
                    } else {
                        state = State::Char;
                        out.push(b' ');
                        i += 1;
                    }
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            State::LineComment => {
                if b == b'\n' {
                    state = State::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if rest.starts_with(b"*/") {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if rest.starts_with(b"/*") {
                    state = State::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Str => {
                if b == b'\\' && i + 1 < src.len() {
                    // An escaped byte may be a newline (string line
                    // continuation) — preserve it so line numbers stay
                    // aligned downstream.
                    out.push(b' ');
                    out.push(if src[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if b == b'"' {
                    state = State::Code;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' && rest[1..].iter().take_while(|&&c| c == b'#').count() >= hashes {
                    state = State::Code;
                    out.extend(std::iter::repeat_n(b' ', 1 + hashes));
                    i += 1 + hashes;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Char => {
                if b == b'\\' && i + 1 < src.len() {
                    out.push(b' ');
                    out.push(if src[i + 1] == b'\n' { b'\n' } else { b' ' });
                    i += 2;
                } else if b == b'\'' {
                    state = State::Code;
                    out.push(b' ');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
        }
    }
    out
}

/// Recognises the opening of a raw string literal (`r`/`br` + `#`* + `"`)
/// at the start of `rest`, returning the number of `#`s.
fn raw_string_open(rest: &[u8]) -> Option<usize> {
    let after_prefix = match rest {
        [b'r', tail @ ..] => tail,
        [b'b', b'r', tail @ ..] => tail,
        _ => return None,
    };
    let hashes = after_prefix.iter().take_while(|&&c| c == b'#').count();
    (after_prefix.get(hashes) == Some(&b'"')).then_some(hashes)
}

/// Distinguishes `'lifetime` (and `'_`) from a char literal at a `'`.
fn is_lifetime(rest: &[u8]) -> bool {
    match rest.get(1) {
        Some(&c) if c.is_ascii_alphabetic() || c == b'_' => {
            // 'x' is a char literal; 'xy (no closing quote soon) is a
            // lifetime. A lifetime is followed by a non-quote.
            rest.get(2) != Some(&b'\'')
        }
        _ => false,
    }
}

/// Byte spans of `#[cfg(test)]` and `#[test]` items in masked text: from
/// the attribute to the matching `}` of the first brace-delimited block
/// (or the first `;` for brace-less items).
fn find_test_spans(masked: &[u8]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for attr in [&b"#[cfg(test)]"[..], &b"#[test]"[..]] {
        let mut from = 0;
        while let Some(pos) = find_from(masked, attr, from) {
            from = pos + attr.len();
            if spans.iter().any(|&(s, e)| pos >= s && pos < e) {
                continue; // nested inside an already-recorded span
            }
            if let Some(end) = item_end(masked, pos + attr.len()) {
                spans.push((pos, end));
            }
        }
    }
    spans.sort_unstable();
    spans
}

/// Finds the end of the item starting after an attribute: the byte after
/// the matching `}` of its first block, or after a `;` seen before any
/// `{`. Returns `None` for an unterminated item (truncated source).
fn item_end(masked: &[u8], mut i: usize) -> Option<usize> {
    while i < masked.len() {
        match masked[i] {
            b'{' => {
                let mut depth = 1usize;
                i += 1;
                while i < masked.len() {
                    match masked[i] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                return Some(i + 1);
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return None;
            }
            b';' => return Some(i + 1),
            _ => i += 1,
        }
    }
    None
}

/// `memmem` from `start`: offset of the first occurrence of `needle`.
pub fn find_from(haystack: &[u8], needle: &[u8], start: usize) -> Option<usize> {
    if needle.is_empty() || start >= haystack.len() {
        return None;
    }
    haystack[start..].windows(needle.len()).position(|w| w == needle).map(|p| p + start)
}

/// Offsets of whole-word occurrences of identifier `word` in `masked`
/// (bounded by non-identifier bytes on both sides).
pub fn word_offsets(masked: &[u8], word: &str) -> Vec<usize> {
    let needle = word.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_from(masked, needle, from) {
        from = pos + 1;
        let before_ok = pos == 0 || !is_ident_byte(masked[pos - 1]);
        let after_ok =
            pos + needle.len() >= masked.len() || !is_ident_byte(masked[pos + needle.len()]);
        if before_ok && after_ok {
            out.push(pos);
        }
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_line_and_block_comments() {
        let m = mask_source(b"a // unwrap()\nb /* panic! */ c");
        assert_eq!(m, *b"a            \nb              c");
    }

    #[test]
    fn masks_nested_block_comments() {
        let m = mask_source(b"x /* a /* b */ c */ y");
        assert_eq!(String::from_utf8(m).unwrap().trim(), "x                   y".trim());
    }

    #[test]
    fn masks_string_bodies_including_escapes() {
        let m = mask_source(br#"f("has \" unwrap()") + g"#);
        let s = String::from_utf8(m).unwrap();
        assert!(!s.contains("unwrap"));
        assert!(s.contains("f(")); // code outside the literal survives
        assert!(s.contains("+ g"));
    }

    #[test]
    fn masks_raw_strings_with_hashes() {
        let m = mask_source(br##"let x = r#"panic!("inner")"# ; done"##);
        let s = String::from_utf8(m).unwrap();
        assert!(!s.contains("panic"));
        assert!(s.contains("let x ="));
        assert!(s.contains("; done"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = b"fn f<'a>(x: &'a str) -> char { 'x' }";
        let m = mask_source(src);
        let s = String::from_utf8(m).unwrap();
        assert!(s.contains("<'a>"), "{s}");
        assert!(s.contains("&'a str"), "{s}");
        assert!(!s.contains("'x'"), "{s}");
    }

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn tail() {}\n";
        let f = ScannedFile::new("a.rs", src);
        let lib_off = src.find("x.unwrap").unwrap();
        let test_off = src.find("y.unwrap").unwrap();
        let tail_off = src.find("fn tail").unwrap();
        assert!(!f.in_test_code(lib_off));
        assert!(f.in_test_code(test_off));
        assert!(!f.in_test_code(tail_off));
    }

    #[test]
    fn test_spans_cover_test_fns_outside_modules() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn lib() {}\n";
        let f = ScannedFile::new("a.rs", src);
        assert!(f.in_test_code(src.find("y.unwrap").unwrap()));
        assert!(!f.in_test_code(src.find("fn lib").unwrap()));
    }

    #[test]
    fn escaped_newlines_in_strings_preserve_line_numbers() {
        // A `\`-newline line continuation must keep its newline in the
        // masked output, or every later line number shifts by one.
        let src = "let s = \"a \\\n   b\";\nfn f() {}\n";
        let m = mask_source(src.as_bytes());
        assert_eq!(m.len(), src.len());
        assert_eq!(
            m.iter().filter(|&&b| b == b'\n').count(),
            src.bytes().filter(|&b| b == b'\n').count()
        );
        let f = ScannedFile::new("a.rs", src);
        assert_eq!(f.line_of(src.find("fn f").unwrap()), 3);
    }

    #[test]
    fn word_offsets_respect_identifier_boundaries() {
        let masked = b"Instant InstantX MyInstant Instant";
        let hits = word_offsets(masked, "Instant");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], 0);
    }

    #[test]
    fn line_numbers_are_one_based() {
        let f = ScannedFile::new("a.rs", "a\nb\nc");
        assert_eq!(f.line_of(0), 1);
        assert_eq!(f.line_of(2), 2);
        assert_eq!(f.line_of(4), 3);
    }
}
