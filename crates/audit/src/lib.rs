//! `uavca-audit`: the workspace determinism-and-fault-policy static
//! analyzer.
//!
//! The whole validation claim of this reproduction rests on
//! bit-identical determinism: campaigns, splitting runs and
//! checkpoint/resume are trustworthy *because* their results are
//! byte-for-byte reproducible across threads, shards and restarts
//! (`campaign_determinism.rs`, `checkpoint_resume.rs`, the serve fault
//! batteries). Those test batteries verify the property after the
//! fact; nothing in the build stops the next change from introducing a
//! `HashMap` iteration, an ambient RNG, or a wall-clock read into a
//! deterministic path — the silent-nondeterminism bug class that
//! invalidates statistical estimates without ever failing a test.
//!
//! This crate turns the repo's determinism conventions into
//! machine-checked invariants. It is deliberately **dependency-free**
//! (the offline workspace has no crates.io, so `syn` is not an
//! option): a hand-written Rust [`lexer`] feeds a token-level rule
//! engine, and `cargo run -p uavca-audit` walks the workspace and
//! exits nonzero on any unannotated diagnostic. CI gates on it before
//! the test suite runs.
//!
//! # Rules
//!
//! Each rule has a stable code, a span, a fix hint, and an inline
//! escape hatch `// audit: allow(<rule>, <reason>)` — see [`RuleCode`]
//! for per-rule rustdoc and `DESIGN.md` §"Audited invariants" for the
//! rationale:
//!
//! - **A1 `hash_collections`** — no `HashMap`/`HashSet` in the
//!   deterministic crates.
//! - **A2 `wall_clock`** — no `Instant`/`SystemTime` in library code
//!   (bench/support and the serve timeout allowlist exempt).
//! - **A3 `ambient_entropy`** — no `thread_rng`/`from_entropy`/`OsRng`
//!   anywhere; seeds flow from `campaign_job_seed`/`split_branch_seed`.
//! - **A4 `panic_policy`** — `unwrap`/`expect`/`panic!`/`unreachable!`
//!   in `core`/`serve` library code require an annotation.
//! - **A6 `wire_coverage`** — every wire-enum variant in
//!   `crates/serve/src/protocol.rs` must appear in the round-trip
//!   battery.
//!
//! # Using the analyzer
//!
//! ```text
//! cargo run -p uavca-audit            # audit the enclosing workspace
//! cargo run -p uavca-audit -- --root /path/to/workspace
//! ```
//!
//! The library surface ([`audit_workspace`], [`SourceFile::parse`] +
//! [`run_file_rules`]) is what the fixture-corpus and self-run tests
//! drive; the binary is a thin wrapper.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod diag;
mod engine;
pub mod lexer;
mod rules;

pub use diag::{Diagnostic, RuleCode};
pub use engine::{
    audit_workspace, find_workspace_root, AuditReport, FileClass, SourceFile, DETERMINISTIC_CRATES,
    PROTOCOL_PATH, ROUNDTRIP_PATH, WALL_CLOCK_ALLOWLIST,
};
pub use rules::{run_file_rules, wire_coverage};
