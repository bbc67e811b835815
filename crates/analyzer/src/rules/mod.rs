//! Rule infrastructure: a token-stream view of one file with test code
//! masked out, plus function-item extraction shared by all rules.

pub mod command_path;
pub mod lock_order;
pub mod panic_freedom;

use crate::lexer::{Tok, TokKind};

/// A raw (pre-suppression) diagnostic from one rule.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule name, matching the `analyzer:allow(<rule>)` grammar.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Description.
    pub message: String,
}

/// One `fn` item: its name and the token range of its body.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, *excluding* the outer braces.
    pub body: std::ops::Range<usize>,
}

/// A file prepared for rule evaluation.
pub struct FileView<'a> {
    /// Workspace-relative path.
    pub path: &'a str,
    /// Token stream.
    pub tokens: &'a [Tok],
    /// `in_test[i]` is true when token `i` belongs to a `#[test]`,
    /// `#[bench]` or `#[cfg(test)]` item — rules skip those regions.
    pub in_test: Vec<bool>,
}

impl<'a> FileView<'a> {
    /// Build the view, computing the test mask.
    pub fn new(path: &'a str, tokens: &'a [Tok]) -> Self {
        let in_test = test_mask(tokens);
        Self { path, tokens, in_test }
    }

    /// Is the token at `i` production (non-test) code?
    pub fn is_production(&self, i: usize) -> bool {
        !self.in_test.get(i).copied().unwrap_or(false)
    }

    /// Extract every `fn` item (test items included; callers consult the
    /// mask via the item's starting token).
    pub fn fn_items(&self) -> Vec<FnItem> {
        let toks = self.tokens;
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            if toks[i].is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
                let name = toks[i + 1].text.clone();
                let line = toks[i].line;
                // Find the body `{`, or a `;` first for bodiless trait
                // methods.  Signatures contain no braces, so the first
                // `{` after the name opens the body.
                let mut j = i + 2;
                let mut open = None;
                while j < toks.len() {
                    if toks[j].is_punct('{') {
                        open = Some(j);
                        break;
                    }
                    if toks[j].is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = open {
                    let close = matching_brace(toks, open);
                    out.push(FnItem { name, line, body: open + 1..close });
                    // Nested fns are rare; re-scanning the body keeps
                    // them visible as their own items.
                    i = open + 1;
                    continue;
                }
            }
            i += 1;
        }
        out
    }
}

/// Index of the `}` matching the `{` at `open` (or the last token if the
/// file is truncated).
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Compute which tokens belong to test/bench items: any item annotated
/// `#[test]`, `#[bench]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]` and so
/// on.  `#[cfg(not(test))]` is production code and stays unmasked.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let attr_end = matching_bracket(toks, i + 1);
        if !attr_is_test(&toks[attr_start..=attr_end]) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut k = attr_end + 1;
        while k < toks.len()
            && toks[k].is_punct('#')
            && toks.get(k + 1).is_some_and(|t| t.is_punct('['))
        {
            k = matching_bracket(toks, k + 1) + 1;
        }
        // The item extends to the `}` closing its first top-level brace,
        // or to a top-level `;` for brace-less items (`use`, consts).
        let mut depth = 0i32;
        let mut end = toks.len().saturating_sub(1);
        let mut saw_brace = false;
        for (idx, t) in toks.iter().enumerate().skip(k) {
            if t.kind == TokKind::Punct {
                match t.text.as_bytes().first() {
                    Some(b'{') | Some(b'(') | Some(b'[') => {
                        if t.is_punct('{') && depth == 0 {
                            saw_brace = true;
                        }
                        depth += 1;
                    }
                    Some(b'}') | Some(b')') | Some(b']') => {
                        depth -= 1;
                        if t.is_punct('}') && depth == 0 && saw_brace {
                            end = idx;
                            break;
                        }
                    }
                    Some(b';') if depth == 0 => {
                        end = idx;
                        break;
                    }
                    _ => {}
                }
            }
        }
        for m in mask.iter_mut().take(end + 1).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Does this attribute mark a test/bench item?  True for `test`/`bench`
/// identifiers not directly wrapped in `not(...)`.
fn attr_is_test(attr: &[Tok]) -> bool {
    for (m, t) in attr.iter().enumerate() {
        if t.is_ident("test") || t.is_ident("bench") {
            let negated = m >= 2 && attr[m - 1].is_punct('(') && attr[m - 2].is_ident("not");
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Is the call `name(` at token index `i` (an ident directly followed by
/// an opening parenthesis)?
pub fn is_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_ident(name) && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
}

/// Is the token at `i` a method call `.name(`?
pub fn is_method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    i >= 1 && toks[i - 1].is_punct('.') && is_call(toks, i, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }\n";
        let lexed = lex(src);
        let view = FileView::new("f.rs", &lexed.tokens);
        let unwraps: Vec<bool> = lexed
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| view.is_production(i))
            .collect();
        assert_eq!(unwraps, vec![true, false]);
    }

    #[test]
    fn cfg_not_test_is_production() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }\n";
        let lexed = lex(src);
        let view = FileView::new("f.rs", &lexed.tokens);
        let idx = lexed.tokens.iter().position(|t| t.is_ident("unwrap")).unwrap();
        assert!(view.is_production(idx));
    }

    #[test]
    fn stacked_attributes_mask_the_whole_item() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { panic!(\"boom\") }\nfn prod() {}\n";
        let lexed = lex(src);
        let view = FileView::new("f.rs", &lexed.tokens);
        let panic_idx = lexed.tokens.iter().position(|t| t.is_ident("panic")).unwrap();
        assert!(!view.is_production(panic_idx));
        let prod_idx = lexed.tokens.iter().position(|t| t.is_ident("prod")).unwrap();
        assert!(view.is_production(prod_idx));
    }

    #[test]
    fn fn_items_capture_names_and_bodies() {
        let src = "fn alpha(x: u8) -> u8 { x }\nimpl T { fn beta(&self) { if a { b() } } }\n";
        let lexed = lex(src);
        let view = FileView::new("f.rs", &lexed.tokens);
        let items = view.fn_items();
        let names: Vec<&str> = items.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta"]);
        // beta's body spans the `if` but not alpha's tokens.
        let beta = &items[1];
        assert!(lexed.tokens[beta.body.clone()].iter().any(|t| t.is_ident("if")));
        assert!(!lexed.tokens[beta.body.clone()].iter().any(|t| t.is_ident("alpha")));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let src = "type F = fn(u8) -> u8;\nfn real() {}\n";
        let lexed = lex(src);
        let view = FileView::new("f.rs", &lexed.tokens);
        let items = view.fn_items();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "real");
    }
}
