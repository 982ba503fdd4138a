//! The known-bad fixture corpus: each file under `tests/fixtures/`
//! triggers an exact set of diagnostics — codes, lines *and* columns —
//! when parsed under a synthetic workspace-relative path. The corpus is
//! the analyzer's ground truth: a rule change that shifts a span or
//! swallows a finding fails here before it silently weakens the CI
//! gate. (The workspace walk itself skips `tests/fixtures/`, so the
//! deliberately-bad files never pollute a real audit.)

use std::path::Path;

use uavca_audit::{run_file_rules, wire_coverage, RuleCode, SourceFile};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Parses `tests/fixtures/<name>` as if it lived at `rel_path` in the
/// workspace, so path-scoped rules fire the same way they would on
/// real code.
fn parse_as(rel_path: &str, name: &str) -> SourceFile {
    SourceFile::parse(rel_path, fixture(name))
}

/// Asserts that the diagnostics are exactly `want` (code, line, col),
/// in order.
fn assert_spans(diags: &[uavca_audit::Diagnostic], want: &[(RuleCode, u32, u32)]) {
    let got: Vec<(RuleCode, u32, u32)> = diags.iter().map(|d| (d.rule, d.line, d.col)).collect();
    assert_eq!(got, want, "full diagnostics: {diags:#?}");
}

#[test]
fn hash_collections_fixture_yields_exact_a1_spans() {
    let file = parse_as("crates/sim/src/fixture.rs", "hash_collections.rs");
    let diags = run_file_rules(&file);
    // Lines 1 and 3 fire; both `HashMap` tokens on line 5 are covered
    // by the standalone allow comment on line 4.
    assert_spans(
        &diags,
        &[
            (RuleCode::HashCollections, 1, 23),
            (RuleCode::HashCollections, 3, 30),
        ],
    );
    assert!(
        diags[0].message.contains("`HashMap`"),
        "{}",
        diags[0].message
    );
    assert!(diags[0].message.contains("`sim`"), "{}", diags[0].message);
}

#[test]
fn the_same_source_is_clean_outside_the_deterministic_crates() {
    let file = parse_as("crates/bench/src/fixture.rs", "hash_collections.rs");
    assert_spans(&run_file_rules(&file), &[]);
}

#[test]
fn wall_clock_fixture_yields_exact_a2_spans() {
    let file = parse_as("crates/exec/src/fixture.rs", "wall_clock.rs");
    // The import names both types; the `Instant::now` use on line 4
    // carries a trailing allow, the `SystemTime::now` on line 5 does
    // not.
    assert_spans(
        &run_file_rules(&file),
        &[
            (RuleCode::WallClock, 1, 17),
            (RuleCode::WallClock, 1, 26),
            (RuleCode::WallClock, 5, 13),
        ],
    );
}

#[test]
fn wall_clock_is_scoped_to_library_code() {
    // The same source in a test target and in the serve transport
    // allowlist is clean.
    let as_test = parse_as("crates/exec/tests/fixture.rs", "wall_clock.rs");
    assert_spans(&run_file_rules(&as_test), &[]);
    let allowlisted = parse_as("crates/serve/src/transport.rs", "wall_clock.rs");
    assert_spans(&run_file_rules(&allowlisted), &[]);
}

#[test]
fn entropy_fixture_yields_exact_a3_spans() {
    // A3 applies even outside the deterministic crates: an example that
    // seeds from ambient entropy is unreproducible all the same.
    let file = parse_as("examples/fixture.rs", "entropy.rs");
    assert_spans(
        &run_file_rules(&file),
        &[
            (RuleCode::AmbientEntropy, 2, 25),
            (RuleCode::AmbientEntropy, 3, 38),
        ],
    );
}

#[test]
fn panics_fixture_yields_exact_a4_spans() {
    let file = parse_as("crates/core/src/fixture.rs", "panics.rs");
    let diags = run_file_rules(&file);
    // The four library-code sites fire; the `unwrap` and `panic!`
    // inside the `#[cfg(test)]` module are exempt.
    assert_spans(
        &diags,
        &[
            (RuleCode::PanicPolicy, 2, 15),
            (RuleCode::PanicPolicy, 3, 15),
            (RuleCode::PanicPolicy, 5, 9),
            (RuleCode::PanicPolicy, 8, 14),
        ],
    );
    assert!(
        diags[0].message.contains(".unwrap() call"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[2].message.contains("panic! macro"),
        "{}",
        diags[2].message
    );
}

#[test]
fn panic_policy_is_scoped_to_core_and_serve() {
    let file = parse_as("crates/sim/src/fixture.rs", "panics.rs");
    assert_spans(&run_file_rules(&file), &[]);
}

#[test]
fn wire_fixture_yields_exact_a6_span() {
    let protocol = parse_as("crates/serve/src/protocol.rs", "protocol.rs");
    let roundtrip = parse_as(
        "crates/serve/tests/protocol_roundtrip.rs",
        "protocol_roundtrip.rs",
    );
    let diags = wire_coverage(&protocol, Some(&roundtrip));
    // `Request::Run`, `Request::Shutdown` and `ShardEvent::Chunk` are
    // exercised; `ShardEvent::Orphaned` is not.
    assert_spans(&diags, &[(RuleCode::WireCoverage, 8, 5)]);
    assert!(
        diags[0].message.contains("ShardEvent::Orphaned"),
        "{}",
        diags[0].message
    );
}

#[test]
fn a_missing_roundtrip_battery_is_itself_a_finding() {
    let protocol = parse_as("crates/serve/src/protocol.rs", "protocol.rs");
    let diags = wire_coverage(&protocol, None);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, RuleCode::WireCoverage);
}

#[test]
fn tricky_syntax_fixture_is_clean_under_every_rule() {
    // Parse the same tricky file under the strictest path (core lib:
    // A1+A2+A3+A4 all in scope) — mentions of `unwrap`, `thread_rng`
    // and `HashMap` inside strings and comments must not fire.
    let file = parse_as("crates/core/src/fixture.rs", "clean.rs");
    assert_spans(&run_file_rules(&file), &[]);
    assert!(file.malformed.is_empty(), "{:#?}", file.malformed);
}

#[test]
fn bad_allow_fixture_yields_exact_e0_spans() {
    let file = parse_as("crates/core/src/fixture.rs", "bad_allow.rs");
    // Unknown rule name, missing reason, and blank reason — all three
    // malformed forms are diagnosed at the comment itself.
    assert_spans(
        &file.malformed,
        &[
            (RuleCode::MalformedAllow, 1, 1),
            (RuleCode::MalformedAllow, 3, 1),
            (RuleCode::MalformedAllow, 5, 19),
        ],
    );
    // A malformed allow covers nothing: the codes still render E0.
    assert_eq!(RuleCode::MalformedAllow.code(), "E0");
}

#[test]
fn rendered_diagnostics_carry_code_name_and_hint() {
    let file = parse_as("crates/sim/src/fixture.rs", "hash_collections.rs");
    let diags = run_file_rules(&file);
    let rendered = diags[0].render();
    assert!(
        rendered.starts_with("crates/sim/src/fixture.rs:1:23: A1 [hash_collections]"),
        "{rendered}"
    );
    assert!(rendered.contains("hint:"), "{rendered}");
}
