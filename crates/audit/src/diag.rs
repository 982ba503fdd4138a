//! Diagnostic codes, spans and the annotation escape hatch.
//!
//! Every rule has a stable short code (`A1`…`A4` and `A6`, plus `E0` for a
//! malformed annotation), a snake_case name usable in an inline
//! annotation, and a fix hint. A site that must legitimately break a
//! rule carries the escape hatch **on the offending line or on a
//! comment line directly above it**:
//!
//! ```text
//! // audit: allow(panic_policy, a poisoned lock means a panicked peer)
//! let guard = self.inner.lock().expect("event log poisoned");
//! ```
//!
//! The reason is mandatory: an annotation without one is itself a
//! diagnostic ([`RuleCode::MalformedAllow`]). Annotations are the
//! reviewed, greppable record of every deliberate exception — the
//! analyzer turns "we agreed this is fine" from tribal knowledge into
//! a token the next refactor cannot silently drop.

use std::fmt;
use std::path::PathBuf;

/// The stable identity of one audit rule.
///
/// Each variant documents what the rule guards; `DESIGN.md` §"Audited
/// invariants" explains why the test batteries alone cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleCode {
    /// **A1 `hash_collections`** — no `HashMap`/`HashSet` in the
    /// deterministic crates (`core`, `encounter`, `sim`, `acasx`,
    /// `mdp`, `exec`, `serve`).
    ///
    /// `RandomState` seeds every `std` hash map per-instance, so any
    /// iteration order that reaches a report, a serialization, or a
    /// work schedule is a silent nondeterminism: campaigns would stop
    /// being byte-identical across runs without a single test failing
    /// deterministically. Use `BTreeMap`/`BTreeSet`, or sort before
    /// iterating and annotate.
    HashCollections,
    /// **A2 `wall_clock`** — no `Instant`/`SystemTime` outside the
    /// bench/support crates, examples/tests, and the serve timeout
    /// allowlist (`crates/serve/src/transport.rs`, which owns deadline
    /// plumbing).
    ///
    /// A wall-clock read in a simulation or estimator path makes
    /// results depend on host load; the checkpoint/resume contract
    /// (resume == uninterrupted, byte-for-byte) is unprovable the
    /// moment any deterministic path can see time.
    WallClock,
    /// **A3 `ambient_entropy`** — no `thread_rng`, `from_entropy`,
    /// `OsRng` or other ambient randomness anywhere in the workspace;
    /// every seed must flow from `campaign_job_seed` /
    /// `split_branch_seed` (or an explicit test seed).
    ///
    /// All replay guarantees — shard requeue, kill-at-any-round
    /// resume, splitting branch replay — derive from seeds being pure
    /// functions of job identity. One ambient draw anywhere upstream
    /// of an outcome breaks every one of them at once.
    AmbientEntropy,
    /// **A4 `panic_policy`** — `unwrap`/`expect`/`panic!`/
    /// `unreachable!` in `core` and `serve` *library* code (tests,
    /// benches and examples exempt) require an annotation.
    ///
    /// The serve layer's faults are typed (`ShardFault`,
    /// `AllShardsLost`) precisely so operators and supervisors can
    /// react to them; an unannotated `unwrap` is a typed fault
    /// regressing into a panic string. The annotation forces each
    /// panic site to state why panicking is the correct contract.
    PanicPolicy,
    /// **A6 `wire_coverage`** — every variant of the serve wire enums
    /// (`Request`, `Event`, `ShardRequest`, `ShardEvent` in
    /// `crates/serve/src/protocol.rs`) must appear in
    /// `crates/serve/tests/protocol_roundtrip.rs`.
    ///
    /// The round-trip battery is the wire format's compatibility
    /// contract, but nothing ties "every message kind" in its doc
    /// comment to the enum definitions: a new variant ships untested
    /// by default (exactly what happened to `ShardEvent::SplitChunk`
    /// in PR 7). This rule makes the battery's coverage structural.
    WireCoverage,
    /// **E0 `malformed_allow`** — an `// audit: allow(…)` annotation
    /// that names an unknown rule or omits the reason.
    ///
    /// A typo'd annotation would otherwise silently fail to cover its
    /// site — or worse, appear to document an exception that the
    /// analyzer never actually granted.
    MalformedAllow,
}

impl RuleCode {
    /// Every real rule, in code order (excludes [`RuleCode::MalformedAllow`],
    /// which is emitted by the annotation parser rather than a rule pass).
    pub const ALL: [RuleCode; 5] = [
        RuleCode::HashCollections,
        RuleCode::WallClock,
        RuleCode::AmbientEntropy,
        RuleCode::PanicPolicy,
        RuleCode::WireCoverage,
    ];

    /// The short diagnostic code (`A1`…`A4`, `A6`, `E0`). `A5` belonged to
    /// a retired rule and is not reused.
    pub fn code(self) -> &'static str {
        match self {
            RuleCode::HashCollections => "A1",
            RuleCode::WallClock => "A2",
            RuleCode::AmbientEntropy => "A3",
            RuleCode::PanicPolicy => "A4",
            RuleCode::WireCoverage => "A6",
            RuleCode::MalformedAllow => "E0",
        }
    }

    /// The snake_case rule name accepted by `// audit: allow(<name>, <reason>)`.
    pub fn name(self) -> &'static str {
        match self {
            RuleCode::HashCollections => "hash_collections",
            RuleCode::WallClock => "wall_clock",
            RuleCode::AmbientEntropy => "ambient_entropy",
            RuleCode::PanicPolicy => "panic_policy",
            RuleCode::WireCoverage => "wire_coverage",
            RuleCode::MalformedAllow => "malformed_allow",
        }
    }

    /// Parses a rule name as written inside an annotation.
    pub fn from_name(name: &str) -> Option<RuleCode> {
        RuleCode::ALL
            .into_iter()
            .find(|r| r.name() == name)
            .or((name == "malformed_allow").then_some(RuleCode::MalformedAllow))
    }

    /// The generic fix hint shown beneath each diagnostic.
    pub fn hint(self) -> &'static str {
        match self {
            RuleCode::HashCollections => {
                "use BTreeMap/BTreeSet (or sort before iterating), or annotate: \
                 // audit: allow(hash_collections, <why order cannot leak>)"
            }
            RuleCode::WallClock => {
                "deterministic paths must not read clocks; move timing to crates/bench \
                 or annotate: // audit: allow(wall_clock, <why time is safe here>)"
            }
            RuleCode::AmbientEntropy => {
                "derive every seed from campaign_job_seed/split_branch_seed or an \
                 explicit constant; or annotate: // audit: allow(ambient_entropy, <why>)"
            }
            RuleCode::PanicPolicy => {
                "return a typed error (see ShardFault/AllShardsLost), or annotate: \
                 // audit: allow(panic_policy, <why panicking is the contract>)"
            }
            RuleCode::WireCoverage => {
                "add the variant to crates/serve/tests/protocol_roundtrip.rs (build a \
                 value, call roundtrip(&…))"
            }
            RuleCode::MalformedAllow => {
                "write // audit: allow(<rule_name>, <reason>) with a rule from: \
                 hash_collections, wall_clock, ambient_entropy, panic_policy, \
                 wire_coverage"
            }
        }
    }
}

impl fmt::Display for RuleCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.code(), self.name())
    }
}

/// One finding: a rule violated at a span, with a fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub rule: RuleCode,
    /// Workspace-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// What was found, specifically.
    pub message: String,
}

impl Diagnostic {
    /// Renders the diagnostic in the `path:line:col: code message`
    /// format editors and CI logs know how to link.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {} {}\n    hint: {}",
            self.path.display(),
            self.line,
            self.col,
            self.rule,
            self.message,
            self.rule.hint()
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}
