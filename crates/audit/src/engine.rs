//! File classification, the annotation escape hatch, `#[cfg(test)]`
//! scope tracking, and the workspace walk.
//!
//! Every rule's scope is expressed in terms of a [`FileClass`] derived
//! from the workspace-relative path, so the fixture corpus can exercise
//! exact scoping by *pretending* paths (see
//! `crates/audit/tests/fixture_corpus.rs`) without a real workspace on
//! disk.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, RuleCode};
use crate::lexer::{lex, Token, TokenKind};

/// Crate directories whose code must be bit-replayable: a campaign,
/// splitting run, or checkpoint/resume touching these crates must
/// serialize byte-identically across threads, shards and restarts.
pub const DETERMINISTIC_CRATES: [&str; 7] =
    ["core", "encounter", "sim", "acasx", "mdp", "exec", "serve"];

/// Files exempt from the wall-clock rule (A2): the serve timeout
/// allowlist. Deadline plumbing (`Transport::recv_deadline` and the
/// shard-loss timeout) legitimately owns time; everything it feeds is
/// still replay-tested byte-for-byte by the fault batteries.
pub const WALL_CLOCK_ALLOWLIST: [&str; 1] = ["crates/serve/src/transport.rs"];

/// The wire-protocol definition and its round-trip battery — the file
/// pair rule A6 ties together.
pub const PROTOCOL_PATH: &str = "crates/serve/src/protocol.rs";
/// See [`PROTOCOL_PATH`].
pub const ROUNDTRIP_PATH: &str = "crates/serve/tests/protocol_roundtrip.rs";

/// What kind of code a file holds, derived from its path. Rule scopes
/// are defined over these classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source: `crates/<k>/src/**` or the facade `src/**`.
    Lib,
    /// Integration tests: `crates/<k>/tests/**` or root `tests/**`.
    Test,
    /// Benchmark code: anything in `crates/bench` or a `benches/` dir.
    Bench,
    /// Example binaries: `examples/**`.
    Example,
    /// The offline stand-in crates: `crates/support/**`.
    Support,
    /// The analyzer's own known-bad corpus: never audited as workspace
    /// code.
    Fixture,
}

/// A lexed source file with its audit-relevant context resolved.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// The file contents.
    pub src: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// The path-derived class.
    pub class: FileClass,
    /// The crate directory name (`core`, `serve`, …; `uavca` for the
    /// root facade), when the path is inside a crate.
    pub krate: Option<String>,
    /// Malformed annotations found while parsing (E0 diagnostics).
    pub malformed: Vec<Diagnostic>,
    /// `(rule, line)` pairs: `rule` is allowed on `line`.
    allows: Vec<(RuleCode, u32)>,
    /// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
    test_mod_ranges: Vec<(u32, u32)>,
}

impl SourceFile {
    /// Lexes and contextualizes `src` as if it lived at `rel_path`
    /// (workspace-relative, forward slashes).
    pub fn parse(rel_path: &str, src: String) -> SourceFile {
        let tokens = lex(&src);
        let (class, krate) = classify(rel_path);
        let mut file = SourceFile {
            rel_path: rel_path.to_string(),
            src,
            tokens,
            class,
            krate,
            malformed: Vec::new(),
            allows: Vec::new(),
            test_mod_ranges: Vec::new(),
        };
        file.collect_allows();
        file.collect_test_mods();
        file
    }

    /// Is `rule` explicitly allowed on `line`?
    pub fn allowed(&self, rule: RuleCode, line: u32) -> bool {
        self.allows.iter().any(|&(r, l)| r == rule && l == line)
    }

    /// Is `line` inside a `#[cfg(test)] mod` body?
    pub fn in_test_mod(&self, line: u32) -> bool {
        self.test_mod_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Emits a diagnostic for the token at `tokens[at]` unless an
    /// annotation covers its line.
    pub fn diag_at(&self, rule: RuleCode, at: usize, message: String, out: &mut Vec<Diagnostic>) {
        let tok = &self.tokens[at];
        if !self.allowed(rule, tok.line) {
            out.push(Diagnostic {
                rule,
                path: PathBuf::from(&self.rel_path),
                line: tok.line,
                col: tok.col,
                message,
            });
        }
    }

    /// Parses every `// audit: allow(rule, reason)` comment. A
    /// trailing comment covers its own line; a comment alone on its
    /// line covers the next line bearing any non-comment token.
    fn collect_allows(&mut self) {
        for (i, tok) in self.tokens.iter().enumerate() {
            if tok.kind != TokenKind::LineComment {
                continue;
            }
            let body = tok.slice(&self.src).trim_start_matches('/').trim();
            let Some(args) = body.strip_prefix("audit:").map(str::trim) else {
                continue;
            };
            let parsed = args
                .strip_prefix("allow(")
                .and_then(|rest| rest.rfind(')').map(|end| &rest[..end]))
                .and_then(|inner| {
                    let (name, reason) = inner.split_once(',')?;
                    let rule = RuleCode::from_name(name.trim())?;
                    (!reason.trim().is_empty()).then_some(rule)
                });
            let Some(rule) = parsed else {
                self.malformed.push(Diagnostic {
                    rule: RuleCode::MalformedAllow,
                    path: PathBuf::from(&self.rel_path),
                    line: tok.line,
                    col: tok.col,
                    message: format!("unparseable audit annotation `{body}`"),
                });
                continue;
            };
            let standalone = !self.tokens[..i]
                .iter()
                .rev()
                .take_while(|t| t.line == tok.line)
                .any(|t| t.kind != TokenKind::LineComment);
            let covered = if standalone {
                self.tokens[i + 1..]
                    .iter()
                    .find(|t| t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment)
                    .map(|t| t.line)
            } else {
                Some(tok.line)
            };
            if let Some(line) = covered {
                self.allows.push((rule, line));
            }
        }
    }

    /// Records the body line range of every `#[cfg(test)] mod … { … }`.
    fn collect_test_mods(&mut self) {
        let toks = &self.tokens;
        let is = |i: usize, text: &str| {
            toks.get(i)
                .is_some_and(|t: &Token| t.slice(&self.src) == text)
        };
        let mut i = 0;
        while i < toks.len() {
            // Match `# [ cfg ( test` token-by-token.
            if is(i, "#")
                && is(i + 1, "[")
                && is(i + 2, "cfg")
                && is(i + 3, "(")
                && is(i + 4, "test")
            {
                // Skip to the attribute's closing `]`.
                let mut j = i + 2;
                let mut bracket = 1usize;
                while j < toks.len() && bracket > 0 {
                    match toks[j].slice(&self.src) {
                        "[" => bracket += 1,
                        "]" => bracket -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                // Skip any further attributes, then require `mod`.
                while is(j, "#") && is(j + 1, "[") {
                    let mut depth = 1usize;
                    j += 2;
                    while j < toks.len() && depth > 0 {
                        match toks[j].slice(&self.src) {
                            "[" => depth += 1,
                            "]" => depth -= 1,
                            _ => {}
                        }
                        j += 1;
                    }
                }
                if is(j, "mod") {
                    // Find the body `{` and its matching `}`.
                    while j < toks.len() && toks[j].slice(&self.src) != "{" {
                        j += 1;
                    }
                    if j < toks.len() {
                        let open = j;
                        let mut depth = 0usize;
                        while j < toks.len() {
                            match toks[j].slice(&self.src) {
                                "{" => depth += 1,
                                "}" => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            j += 1;
                        }
                        let close_line = toks.get(j).map_or(u32::MAX, |t| t.line);
                        self.test_mod_ranges.push((toks[open].line, close_line));
                        i = j;
                        continue;
                    }
                }
            }
            i += 1;
        }
    }
}

/// Derives `(class, crate_dir)` from a workspace-relative path.
fn classify(rel_path: &str) -> (FileClass, Option<String>) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    if parts.first() == Some(&"crates") {
        let krate = parts.get(1).map(|s| s.to_string());
        let class = match (parts.get(1), parts.get(2), parts.get(3)) {
            (Some(&"support"), _, _) => FileClass::Support,
            (Some(&"audit"), Some(&"tests"), Some(&"fixtures")) => FileClass::Fixture,
            (Some(&"bench"), _, _) => FileClass::Bench,
            (_, Some(&"tests"), _) => FileClass::Test,
            (_, Some(&"benches"), _) => FileClass::Bench,
            (_, Some(&"examples"), _) => FileClass::Example,
            _ => FileClass::Lib,
        };
        (class, krate)
    } else {
        let class = match parts.first() {
            Some(&"examples") => FileClass::Example,
            Some(&"tests") => FileClass::Test,
            Some(&"benches") => FileClass::Bench,
            _ => FileClass::Lib,
        };
        (class, Some("uavca".to_string()))
    }
}

/// The outcome of auditing a workspace: how much was looked at, and
/// everything found.
#[derive(Debug)]
pub struct AuditReport {
    /// Number of `.rs` files lexed and audited.
    pub files_scanned: usize,
    /// Every diagnostic, sorted by path, line, column, code.
    pub diagnostics: Vec<Diagnostic>,
}

/// Audits the workspace rooted at `root`: walks `src/`, `crates/`,
/// `examples/`, `tests/` and `benches/`, skipping `target/` and the
/// analyzer's own fixture corpus, and runs every rule.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    let mut files = Vec::new();
    for dir in ["src", "crates", "examples", "tests", "benches"] {
        let path = root.join(dir);
        if path.is_dir() {
            walk(&path, &mut files)?;
        }
    }
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(path)?;
        sources.push(SourceFile::parse(&rel, src));
    }

    let mut diagnostics = Vec::new();
    for file in &sources {
        diagnostics.extend(crate::rules::run_file_rules(file));
        diagnostics.extend(file.malformed.iter().cloned());
    }
    let protocol = sources.iter().find(|f| f.rel_path == PROTOCOL_PATH);
    let roundtrip = sources.iter().find(|f| f.rel_path == ROUNDTRIP_PATH);
    if let Some(protocol) = protocol {
        diagnostics.extend(crate::rules::wire_coverage(protocol, roundtrip));
    }
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(AuditReport {
        files_scanned: sources.len(),
        diagnostics,
    })
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" {
                continue;
            }
            // The known-bad corpus must never be audited as workspace
            // code — it exists to violate every rule.
            if name == "fixtures" && dir.ends_with("crates/audit/tests") {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        use FileClass::*;
        let cases = [
            ("crates/core/src/campaign.rs", Lib, Some("core")),
            ("crates/core/tests/determinism.rs", Test, Some("core")),
            (
                "crates/bench/src/bin/campaign_eval.rs",
                Bench,
                Some("bench"),
            ),
            ("crates/support/rand/src/lib.rs", Support, Some("support")),
            ("crates/audit/tests/fixtures/bad.rs", Fixture, Some("audit")),
            ("examples/quickstart.rs", Example, Some("uavca")),
            ("src/lib.rs", Lib, Some("uavca")),
            ("tests/pipeline.rs", Test, Some("uavca")),
        ];
        for (path, class, krate) in cases {
            let file = SourceFile::parse(path, String::new());
            assert_eq!(file.class, class, "{path}");
            assert_eq!(file.krate.as_deref(), krate, "{path}");
        }
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        let src = "let x = 1; // audit: allow(wall_clock, timing the bench itself)\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src.to_string());
        assert!(file.allowed(RuleCode::WallClock, 1));
        assert!(!file.allowed(RuleCode::WallClock, 2));
    }

    #[test]
    fn standalone_allow_covers_the_next_code_line() {
        let src = "\n// audit: allow(panic_policy, lock poisoning is fatal by design)\n// more prose\nlet x = a.unwrap();\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src.to_string());
        assert!(file.allowed(RuleCode::PanicPolicy, 4));
        assert!(!file.allowed(RuleCode::PanicPolicy, 2));
    }

    #[test]
    fn malformed_annotations_are_diagnosed() {
        for bad in [
            "// audit: allow(bogus_rule, reason)",
            "// audit: allow(wall_clock)",
            "// audit: allow(wall_clock, )",
            "// audit: allow wall_clock",
        ] {
            let file = SourceFile::parse("crates/core/src/x.rs", bad.to_string());
            assert_eq!(file.malformed.len(), 1, "{bad}");
            assert_eq!(file.malformed[0].rule, RuleCode::MalformedAllow, "{bad}");
        }
    }

    #[test]
    fn cfg_test_mod_ranges_cover_bodies() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let file = SourceFile::parse("crates/core/src/x.rs", src.to_string());
        assert!(!file.in_test_mod(1));
        assert!(file.in_test_mod(4));
        assert!(!file.in_test_mod(6));
    }
}
