//! The five audit rules, as token-level passes over a [`SourceFile`].
//!
//! Scope summary (see [`RuleCode`](crate::RuleCode) for the *why* of
//! each rule):
//!
//! | rule | code | applies to |
//! |------|------|------------|
//! | `hash_collections` | A1 | every file of the deterministic crates |
//! | `wall_clock` | A2 | library code outside bench/support, minus the serve timeout allowlist |
//! | `ambient_entropy` | A3 | everything except support crates |
//! | `panic_policy` | A4 | `core`/`serve` library code outside `#[cfg(test)]` modules |
//! | `wire_coverage` | A6 | the `protocol.rs` / `protocol_roundtrip.rs` file pair |
//!
//! Fixture-class files (the analyzer's own known-bad corpus) are never
//! audited as workspace code.

use crate::diag::{Diagnostic, RuleCode};
use crate::engine::{
    FileClass, SourceFile, DETERMINISTIC_CRATES, ROUNDTRIP_PATH, WALL_CLOCK_ALLOWLIST,
};
use crate::lexer::TokenKind;

/// Identifiers rule A1 rejects: per-instance-seeded hash collections.
const HASH_COLLECTIONS: [&str; 2] = ["HashMap", "HashSet"];
/// Identifiers rule A2 rejects: wall-clock types.
const WALL_CLOCKS: [&str; 2] = ["Instant", "SystemTime"];
/// Identifiers rule A3 rejects: ambient entropy sources.
const ENTROPY_SOURCES: [&str; 5] = [
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "getrandom",
];
/// The wire enums rule A6 requires round-trip coverage for.
const WIRE_ENUMS: [&str; 4] = ["Request", "Event", "ShardRequest", "ShardEvent"];

/// Runs every single-file rule (A1–A4) over `file`.
pub fn run_file_rules(file: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if matches!(file.class, FileClass::Fixture | FileClass::Support) {
        return out;
    }
    hash_collections(file, &mut out);
    wall_clock(file, &mut out);
    ambient_entropy(file, &mut out);
    panic_policy(file, &mut out);
    out
}

/// A1: no `HashMap`/`HashSet` anywhere in a deterministic crate
/// (library, tests and benches alike — a test that iterates a hash map
/// can flake just as silently as a report that does).
fn hash_collections(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let deterministic = file
        .krate
        .as_deref()
        .is_some_and(|k| DETERMINISTIC_CRATES.contains(&k));
    if !deterministic {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind == TokenKind::Ident && HASH_COLLECTIONS.contains(&tok.slice(&file.src)) {
            file.diag_at(
                RuleCode::HashCollections,
                i,
                format!(
                    "`{}` in deterministic crate `{}`: iteration order is seeded per instance",
                    tok.slice(&file.src),
                    file.krate.as_deref().unwrap_or("?"),
                ),
                out,
            );
        }
    }
}

/// A2: no `Instant`/`SystemTime` in library code (bench/support crates,
/// tests, benches, examples and the serve timeout allowlist exempt).
fn wall_clock(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Lib
        || file.krate.as_deref() == Some("bench")
        || WALL_CLOCK_ALLOWLIST.contains(&file.rel_path.as_str())
    {
        return;
    }
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind == TokenKind::Ident && WALL_CLOCKS.contains(&tok.slice(&file.src)) {
            file.diag_at(
                RuleCode::WallClock,
                i,
                format!("wall-clock type `{}` in library code", tok.slice(&file.src)),
                out,
            );
        }
    }
}

/// A3: no ambient entropy anywhere outside the support crates — every
/// seed must be a pure function of job identity.
fn ambient_entropy(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    for (i, tok) in file.tokens.iter().enumerate() {
        if tok.kind == TokenKind::Ident && ENTROPY_SOURCES.contains(&tok.slice(&file.src)) {
            file.diag_at(
                RuleCode::AmbientEntropy,
                i,
                format!(
                    "ambient entropy source `{}`; seeds must flow from \
                     campaign_job_seed/split_branch_seed",
                    tok.slice(&file.src)
                ),
                out,
            );
        }
    }
}

/// A4: `unwrap`/`expect`/`panic!`/`unreachable!` in `core`/`serve`
/// library code (outside `#[cfg(test)]` modules) require an annotation.
fn panic_policy(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if file.class != FileClass::Lib
        || !matches!(file.krate.as_deref(), Some("core") | Some("serve"))
    {
        return;
    }
    let toks = &file.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if tok.kind != TokenKind::Ident || file.in_test_mod(tok.line) {
            continue;
        }
        let text = tok.slice(&file.src);
        let method_call = |name| {
            // `.unwrap(` / `.expect(` — requiring the leading dot keeps
            // `#[expect(lint)]` attributes and items *named* unwrap out.
            text == name
                && i > 0
                && toks[i - 1].slice(&file.src) == "."
                && toks.get(i + 1).is_some_and(|t| t.slice(&file.src) == "(")
        };
        let bang_macro =
            |name| text == name && toks.get(i + 1).is_some_and(|t| t.slice(&file.src) == "!");
        let found = if method_call("unwrap") || method_call("expect") {
            format!(".{text}() call")
        } else if bang_macro("panic") || bang_macro("unreachable") {
            format!("{text}! macro")
        } else {
            continue;
        };
        file.diag_at(
            RuleCode::PanicPolicy,
            i,
            format!(
                "{found} in `{}` library code: typed faults must not regress into panics",
                file.krate.as_deref().unwrap_or("?")
            ),
            out,
        );
    }
}

/// A6: every variant of the wire enums in `protocol.rs` must appear
/// (as an identifier) in `protocol_roundtrip.rs`.
pub fn wire_coverage(protocol: &SourceFile, roundtrip: Option<&SourceFile>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let enums = collect_enum_variants(protocol);
    let Some(roundtrip) = roundtrip else {
        if !enums.is_empty() {
            out.push(Diagnostic {
                rule: RuleCode::WireCoverage,
                path: protocol.rel_path.clone().into(),
                line: 1,
                col: 1,
                message: format!("round-trip battery `{ROUNDTRIP_PATH}` is missing"),
            });
        }
        return out;
    };
    let covered: Vec<&str> = roundtrip
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.slice(&roundtrip.src))
        .collect();
    for (enum_name, variants) in enums {
        for (variant, token_index) in variants {
            if !covered.contains(&variant.as_str()) {
                protocol.diag_at(
                    RuleCode::WireCoverage,
                    token_index,
                    format!(
                        "wire variant `{enum_name}::{variant}` never appears in the \
                         round-trip battery ({ROUNDTRIP_PATH})"
                    ),
                    &mut out,
                );
            }
        }
    }
    out
}

/// Collects `(enum_name, [(variant, token_index)])` for the wire enums.
fn collect_enum_variants(file: &SourceFile) -> Vec<(String, Vec<(String, usize)>)> {
    let toks = &file.tokens;
    let text = |i: usize| toks[i].slice(&file.src);
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].kind == TokenKind::Ident
            && text(i) == "enum"
            && i + 1 < toks.len()
            && WIRE_ENUMS.contains(&text(i + 1)))
        {
            i += 1;
            continue;
        }
        let enum_name = text(i + 1).to_string();
        let mut j = i + 2;
        while j < toks.len() && text(j) != "{" {
            j += 1;
        }
        let mut variants = Vec::new();
        let mut depth = 1usize;
        let mut k = j + 1;
        let mut expect_variant = true;
        while k < toks.len() && depth > 0 {
            match text(k) {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth -= 1,
                "," if depth == 1 => expect_variant = true,
                "#" if depth == 1 => {
                    // Skip variant attributes.
                    if k + 1 < toks.len() && text(k + 1) == "[" {
                        let mut b = 1usize;
                        k += 2;
                        while k < toks.len() && b > 0 {
                            match text(k) {
                                "[" => b += 1,
                                "]" => b -= 1,
                                _ => {}
                            }
                            k += 1;
                        }
                        continue;
                    }
                }
                _ => {
                    if depth == 1 && expect_variant && toks[k].kind == TokenKind::Ident {
                        variants.push((text(k).to_string(), k));
                        expect_variant = false;
                    }
                }
            }
            k += 1;
        }
        out.push((enum_name, variants));
        i = k;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src.to_string())
    }

    fn codes(diags: &[Diagnostic]) -> Vec<(&'static str, u32, u32)> {
        diags
            .iter()
            .map(|d| (d.rule.code(), d.line, d.col))
            .collect()
    }

    #[test]
    fn hash_collections_fire_only_in_deterministic_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(
            codes(&run_file_rules(&file("crates/core/src/x.rs", src))),
            vec![("A1", 1, 23)]
        );
        assert!(run_file_rules(&file("crates/evo/src/x.rs", src)).is_empty());
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let src = "// HashMap Instant thread_rng\nlet s = \"HashMap thread_rng\";\nlet r = r#\"Instant::now()\"#;\n";
        assert!(run_file_rules(&file("crates/core/src/x.rs", src)).is_empty());
    }

    #[test]
    fn panic_policy_requires_the_dot_and_the_bang() {
        let src = "#[expect(dead_code)]\nfn f(x: Option<u8>) -> u8 {\n    std::panic::catch_unwind(|| 1u8).ok();\n    x.unwrap()\n}\n";
        assert_eq!(
            codes(&run_file_rules(&file("crates/serve/src/x.rs", src))),
            vec![("A4", 4, 7)]
        );
    }

    #[test]
    fn panic_policy_skips_cfg_test_modules_and_other_crates() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { None::<u8>.unwrap(); panic!(\"x\") }\n}\n";
        assert!(run_file_rules(&file("crates/core/src/x.rs", src)).is_empty());
        let live = "fn f() { panic!(\"boom\") }\n";
        assert!(run_file_rules(&file("crates/sim/src/x.rs", live)).is_empty());
        assert_eq!(
            codes(&run_file_rules(&file("crates/core/src/x.rs", live))),
            vec![("A4", 1, 10)]
        );
    }

    #[test]
    fn wire_coverage_reports_missing_variants() {
        let protocol = file(
            "crates/serve/src/protocol.rs",
            "pub enum Request {\n    #[doc = \"x\"]\n    RunBatch { jobs: Vec<u8> },\n    Shutdown,\n}\n",
        );
        let covered = file(
            "crates/serve/tests/protocol_roundtrip.rs",
            "fn t() { let _ = Request::RunBatch { jobs: vec![] }; }\n",
        );
        let diags = wire_coverage(&protocol, Some(&covered));
        assert_eq!(codes(&diags), vec![("A6", 4, 5)]);
        assert!(diags[0].message.contains("Request::Shutdown"));
    }
}
