//! Lightweight per-file item model.
//!
//! Built from the token stream of [`crate::lexer`], this recovers just
//! enough structure for the rules: function spans, struct fields with
//! their type text, `#[cfg(test)]` / `#[test]` spans, call sites with
//! argument spans, and comment *attachment* — which code line each
//! comment annotates, so `// ord:` / `// shared-line:` /
//! `// lint:allow(...)` justifications can be matched to the constructs
//! they cover.
//!
//! It is deliberately not a parser: brace/paren matching over significant
//! tokens plus a handful of keyword-triggered recognizers. That is enough
//! to be exact about *where* things are (positions come straight from
//! token spans) without chasing the full grammar.

use std::ops::Range;

use crate::lexer::{lex, LineMap, TokKind, Token};

/// A comment with the line it annotates.
///
/// A trailing comment (code earlier on the same line) anchors to its own
/// line; a comment-only line anchors to the next line holding code, so a
/// block of comment lines above an item all annotate that item.
#[derive(Debug)]
pub struct CommentAnn {
    /// Line whose code this comment annotates (1-based).
    pub anchor_line: u32,
    /// Line the comment itself starts on.
    pub line: u32,
    /// Column of the comment start.
    pub col: u32,
    /// Comment content, delimiters stripped, trimmed.
    pub text: String,
}

/// One `fn` item (free, inherent, trait method — anything with a body).
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Byte offset of the name.
    pub byte: usize,
    pub line: u32,
    /// Byte span of the body, braces included.
    pub body: Range<usize>,
    /// Carried a `#[test]`-style attribute directly.
    pub test_attr: bool,
}

/// One field of a braced struct.
#[derive(Debug)]
pub struct FieldItem {
    pub name: String,
    pub byte: usize,
    pub line: u32,
    pub col: u32,
    /// Source text of the declared type, whitespace-normalized.
    pub ty: String,
}

/// One braced struct definition.
#[derive(Debug)]
pub struct StructItem {
    pub name: String,
    pub byte: usize,
    pub line: u32,
    pub fields: Vec<FieldItem>,
}

/// One call site: `name(...)` or `.name(...)`.
#[derive(Debug)]
pub struct CallSite {
    /// The called identifier (method or function name).
    pub method: String,
    /// Preceded by `.` — a method call.
    pub is_method: bool,
    /// Byte offset of the called identifier.
    pub byte: usize,
    pub line: u32,
    pub col: u32,
    /// Line of the closing parenthesis (calls may span lines).
    pub end_line: u32,
    /// Significant-token index range of the argument list (parens
    /// excluded), into [`FileModel::sig`].
    pub args: Range<usize>,
}

/// The per-file model the rules run over.
pub struct FileModel<'a> {
    pub src: &'a str,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (non-trivia) tokens.
    pub sig: Vec<usize>,
    pub lines: LineMap,
    pub comments: Vec<CommentAnn>,
    pub fns: Vec<FnItem>,
    pub structs: Vec<StructItem>,
    pub calls: Vec<CallSite>,
    /// Byte ranges of `#[cfg(test)] mod … { … }` bodies.
    pub test_spans: Vec<Range<usize>>,
}

impl<'a> FileModel<'a> {
    /// Text of significant token `k` (an index into [`FileModel::sig`]).
    pub fn txt(&self, k: usize) -> &'a str {
        self.tokens[self.sig[k]].text(self.src)
    }

    fn tok(&self, k: usize) -> &Token {
        &self.tokens[self.sig[k]]
    }

    /// Byte offset of significant token `k`.
    fn byte(&self, k: usize) -> usize {
        self.tok(k).start
    }

    /// 1-based `(line, col)` of byte offset `off`.
    pub fn line_col(&self, off: usize) -> (u32, u32) {
        self.lines.line_col(off)
    }

    /// Whether byte offset `off` falls in test code: a `#[cfg(test)]` mod
    /// or a `#[test]`-attributed fn body.
    pub fn in_test(&self, off: usize) -> bool {
        self.test_spans.iter().any(|s| s.contains(&off))
            || self
                .fns
                .iter()
                .any(|f| f.test_attr && f.body.contains(&off))
    }

    /// All comments annotating lines `lo..=hi`.
    pub fn anns(&self, lo: u32, hi: u32) -> impl Iterator<Item = &CommentAnn> {
        self.comments
            .iter()
            .filter(move |c| c.anchor_line >= lo && c.anchor_line <= hi)
    }

    /// Whether some comment annotating lines `lo..=hi` starts with
    /// `marker` (e.g. `"ord:"`, `"SAFETY:"`, `"shared-line:"`).
    pub fn has_marker(&self, lo: u32, hi: u32, marker: &str) -> bool {
        self.anns(lo, hi).any(|c| c.text.starts_with(marker))
    }

    /// Index (into `sig`) of the token matching the opener at `open`
    /// (`{`/`}`, `(`/`)`, `[`/`]`). Returns `sig.len()` if unbalanced.
    fn matching(&self, open: usize) -> usize {
        let (o, c) = match self.txt(open) {
            "{" => ("{", "}"),
            "(" => ("(", ")"),
            "[" => ("[", "]"),
            _ => return open,
        };
        let mut depth = 0usize;
        for k in open..self.sig.len() {
            let t = self.txt(k);
            if t == o {
                depth += 1;
            } else if t == c {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
        self.sig.len()
    }

    /// Builds the model for `src`.
    pub fn build(src: &'a str) -> Self {
        let tokens = lex(src);
        let lines = LineMap::new(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_significant())
            .map(|(i, _)| i)
            .collect();

        let comments = attach_comments(src, &tokens, &lines);

        let mut m = FileModel {
            src,
            tokens,
            sig,
            lines,
            comments,
            fns: Vec::new(),
            structs: Vec::new(),
            calls: Vec::new(),
            test_spans: Vec::new(),
        };
        m.scan_items();
        m.scan_calls();
        m
    }

    /// Single linear pass over significant tokens recognizing items. The
    /// pass descends through every brace (bodies, struct literals, blocks)
    /// rather than skipping them, so nested items are found wherever they
    /// hide.
    fn scan_items(&mut self) {
        let n = self.sig.len();
        let mut pending_cfg_test = false;
        let mut pending_test_attr = false;
        let mut k = 0;
        while k < n {
            let t = self.txt(k);
            match t {
                "#" => {
                    let inner = k + 1 < n && self.txt(k + 1) == "!";
                    let open = k + if inner { 2 } else { 1 };
                    if open < n && self.txt(open) == "[" {
                        let close = self.matching(open);
                        let end = if close < n {
                            self.byte(close)
                        } else {
                            self.src.len()
                        };
                        let text: String = self.src[self.tok(open).end..end]
                            .split_whitespace()
                            .collect();
                        if !inner {
                            if text.starts_with("cfg(")
                                && text.contains("test")
                                && !text.contains("not(test")
                            {
                                pending_cfg_test = true;
                            }
                            if text == "test" || text.ends_with("::test") {
                                pending_test_attr = true;
                            }
                        }
                        k = close + 1;
                        continue;
                    }
                    k += 1;
                }
                "mod" => {
                    if pending_cfg_test && k + 2 < n && self.txt(k + 2) == "{" {
                        let close = self.matching(k + 2);
                        let end = if close < n {
                            self.tok(close).end
                        } else {
                            self.src.len()
                        };
                        self.test_spans.push(self.byte(k)..end);
                    }
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    k += 1;
                }
                "fn" => {
                    if k + 1 < n && self.tok(k + 1).kind == TokKind::Ident {
                        let name = self.txt(k + 1).to_string();
                        let byte = self.byte(k + 1);
                        // Find the body `{` (or `;` for a bodiless decl),
                        // tracking () and [] so `[u8; 4]` params don't end
                        // the search early.
                        let mut depth = 0i32;
                        let mut j = k + 2;
                        let mut body = None;
                        while j < n {
                            match self.txt(j) {
                                "(" | "[" => depth += 1,
                                ")" | "]" => depth -= 1,
                                "{" if depth == 0 => {
                                    body = Some(j);
                                    break;
                                }
                                ";" if depth == 0 => break,
                                _ => {}
                            }
                            j += 1;
                        }
                        if let Some(open) = body {
                            let close = self.matching(open);
                            let end = if close < n {
                                self.tok(close).end
                            } else {
                                self.src.len()
                            };
                            self.fns.push(FnItem {
                                name,
                                byte,
                                line: self.lines.line_of(byte),
                                body: self.byte(open)..end,
                                test_attr: pending_test_attr,
                            });
                        }
                    }
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    k += 1;
                }
                "struct" => {
                    if k + 1 < n && self.tok(k + 1).kind == TokKind::Ident {
                        let sname = self.txt(k + 1).to_string();
                        let sbyte = self.byte(k + 1);
                        // Skip generics to the body / tuple / unit end.
                        let mut j = k + 2;
                        while j < n && !matches!(self.txt(j), "{" | "(" | ";") {
                            j += 1;
                        }
                        // Unit and tuple structs have no named fields.
                        if j < n && self.txt(j) == "{" {
                            let close = self.matching(j);
                            let fields = self.parse_fields(j + 1, close.min(n));
                            self.structs.push(StructItem {
                                name: sname,
                                byte: sbyte,
                                line: self.lines.line_of(sbyte),
                                fields,
                            });
                        }
                    }
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    k += 1;
                }
                // Item keywords that consume pending attributes.
                "use" | "static" | "const" | "enum" | "type" | "union" | "macro_rules" => {
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    k += 1;
                }
                ";" | "{" | "}" | "=" => {
                    pending_cfg_test = false;
                    pending_test_attr = false;
                    k += 1;
                }
                _ => k += 1,
            }
        }
    }

    /// Parses the fields of a braced struct body spanning significant
    /// tokens `(start..close)` (exclusive of both braces).
    fn parse_fields(&self, start: usize, close: usize) -> Vec<FieldItem> {
        let mut fields = Vec::new();
        let mut k = start;
        while k < close {
            // Skip field attributes.
            while k < close && self.txt(k) == "#" {
                if k + 1 < close && self.txt(k + 1) == "[" {
                    k = self.matching(k + 1) + 1;
                } else {
                    k += 1;
                }
            }
            // Skip visibility.
            if k < close && self.txt(k) == "pub" {
                k += 1;
                if k < close && self.txt(k) == "(" {
                    k = self.matching(k) + 1;
                }
            }
            if k + 1 >= close || self.tok(k).kind != TokKind::Ident || self.txt(k + 1) != ":" {
                break;
            }
            let name = self.txt(k).to_string();
            let byte = self.byte(k);
            let (line, col) = self.lines.line_col(byte);
            // Type runs to the next comma at depth 0. `<`/`>` are tracked
            // as generic brackets; `->` must not close one.
            let ty_start = k + 2;
            let mut depth = 0i32;
            let mut j = ty_start;
            while j < close {
                match self.txt(j) {
                    "<" => depth += 1,
                    ">" if j > ty_start && self.txt(j - 1) == "-" => {}
                    ">" => depth -= 1,
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "," if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let ty: String = (ty_start..j)
                .map(|p| self.txt(p))
                .collect::<Vec<_>>()
                .join(" ");
            fields.push(FieldItem {
                name,
                byte,
                line,
                col,
                ty,
            });
            k = j + 1;
        }
        fields
    }

    /// Collects every `name(…)` / `.name(…)` call site.
    fn scan_calls(&mut self) {
        const NOT_CALLS: &[&str] = &[
            "if", "while", "for", "match", "return", "in", "as", "move", "fn", "loop", "else",
            "let", "mut", "ref", "impl", "dyn", "box", "unsafe", "use", "where", "async", "pub",
            "crate",
        ];
        let n = self.sig.len();
        let mut calls = Vec::new();
        for k in 0..n.saturating_sub(1) {
            if self.tok(k).kind != TokKind::Ident || self.txt(k + 1) != "(" {
                continue;
            }
            let name = self.txt(k);
            if NOT_CALLS.contains(&name) {
                continue;
            }
            // `fn name(` is a definition, not a call.
            if k > 0 && self.txt(k - 1) == "fn" {
                continue;
            }
            let is_method = k > 0 && self.txt(k - 1) == ".";
            let close = self.matching(k + 1);
            let byte = self.byte(k);
            let (line, col) = self.lines.line_col(byte);
            let end_line = if close < n {
                self.lines.line_of(self.byte(close))
            } else {
                line
            };
            calls.push(CallSite {
                method: name.to_string(),
                is_method,
                byte,
                line,
                col,
                end_line,
                args: (k + 2)..close.min(n),
            });
        }
        self.calls = calls;
    }
}

/// Computes comment attachment (see [`CommentAnn`]).
fn attach_comments(src: &str, tokens: &[Token], lines: &LineMap) -> Vec<CommentAnn> {
    // For every line, does it hold a significant token? Attribute lines
    // (`#[...]` / `#![...]`) are excluded: a comment above an attribute
    // annotates the item under it, not the attribute, so the cascade must
    // pass through.
    let mut code_lines = std::collections::BTreeSet::new();
    let mut attr_lines = std::collections::BTreeSet::new();
    let sig: Vec<&Token> = tokens.iter().filter(|t| t.is_significant()).collect();
    let mut k = 0;
    while k < sig.len() {
        if sig[k].text(src) == "#"
            && sig
                .get(k + 1)
                .is_some_and(|t| t.text(src) == "[" || t.text(src) == "!")
        {
            // Span the whole attribute (to its closing `]`).
            let mut depth = 0i32;
            let start = sig[k].start;
            let mut end = sig[k].end;
            let mut j = k + 1;
            while j < sig.len() {
                match sig[j].text(src) {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            end = sig[j].end;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            for l in lines.line_of(start)..=lines.line_of(end.saturating_sub(1).max(start)) {
                attr_lines.insert(l);
            }
            k = j + 1;
            continue;
        }
        k += 1;
    }
    for t in &sig {
        let lo = lines.line_of(t.start);
        let hi = lines.line_of(t.end.saturating_sub(1).max(t.start));
        for l in lo..=hi {
            if !attr_lines.contains(&l) {
                code_lines.insert(l);
            }
        }
    }
    let mut out = Vec::new();
    for t in tokens {
        let text = match t.kind {
            TokKind::LineComment => t
                .text(src)
                .trim_start_matches('/')
                .trim_start_matches('!')
                .trim(),
            TokKind::BlockComment => t
                .text(src)
                .trim_start_matches("/*")
                .trim_end_matches("*/")
                .trim(),
            _ => continue,
        };
        let (line, col) = lines.line_col(t.start);
        let anchor = if code_lines.contains(&line) {
            line
        } else {
            // Comment-only line: annotate the next code line.
            code_lines.range(line..).next().copied().unwrap_or(line)
        };
        out.push(CommentAnn {
            anchor_line: anchor,
            line,
            col,
            text: text.to_string(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fns_structs_and_test_spans() {
        let src = r#"
pub struct S {
    pub count: CachePadded<AtomicU64>,
    flag: AtomicBool,
}

impl S {
    fn touch(&self) {
        self.flag.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe() {
        x.load(Ordering::Relaxed);
    }
}
"#;
        let m = FileModel::build(src);
        assert_eq!(m.structs.len(), 1);
        let s = &m.structs[0];
        assert_eq!(s.name, "S");
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].name, "count");
        assert!(s.fields[0].ty.contains("CachePadded"));
        assert_eq!(s.fields[1].ty, "AtomicBool");
        let touch = m.fns.iter().find(|f| f.name == "touch").unwrap();
        assert!(!m.in_test(touch.byte));
        let probe = m.fns.iter().find(|f| f.name == "probe").unwrap();
        assert!(probe.test_attr);
        assert!(m.in_test(probe.byte));
        let store = m.calls.iter().find(|c| c.method == "store").unwrap();
        assert!(!m.in_test(store.byte));
        let load = m.calls.iter().find(|c| c.method == "load").unwrap();
        assert!(m.in_test(load.byte));
    }

    #[test]
    fn cfg_attr_not_test_is_not_a_test_span() {
        let src = "#[cfg_attr(not(test), allow(dead_code))]\nfn helper() { rt.sfence(); }\n";
        let m = FileModel::build(src);
        let f = m.fns.iter().find(|f| f.name == "helper").unwrap();
        assert!(!f.test_attr);
        assert!(!m.in_test(f.body.start + 1));
    }

    #[test]
    fn comment_attachment() {
        let src = "// above\n// also above\nlet x = 1; // trailing\n\nlet y = 2;\n";
        let m = FileModel::build(src);
        let at3: Vec<_> = m.anns(3, 3).map(|c| c.text.clone()).collect();
        assert_eq!(at3, vec!["above", "also above", "trailing"]);
        assert_eq!(m.anns(5, 5).count(), 0);
    }

    #[test]
    fn multiline_call_span() {
        let src = "fn f() {\n    x\n        .compare_exchange(a, b,\n            Ordering::SeqCst, Ordering::Relaxed)\n        .ok();\n}";
        let m = FileModel::build(src);
        let c = m
            .calls
            .iter()
            .find(|c| c.method == "compare_exchange")
            .unwrap();
        assert_eq!(c.line, 3);
        assert_eq!(c.end_line, 4);
    }
}
