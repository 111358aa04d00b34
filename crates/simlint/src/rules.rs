//! The simlint rule set.
//!
//! Eleven rules, each guarding an invariant that the runtime audit (PR 2)
//! and the differential scheduler tests (PR 3) can only check
//! *dynamically*. R1–R8 are token-level; R9–R11 are semantic passes built
//! on [`crate::parse`] and [`crate::index`] and exist to certify the
//! PDES-sharding preconditions (see DESIGN.md § Static analysis):
//!
//! | rule                   | guards against                                      |
//! |------------------------|-----------------------------------------------------|
//! | `nondeterministic-map` | `HashMap`/`HashSet` iteration order in sim state    |
//! | `wall-clock`           | `Instant`/`SystemTime`/`thread::sleep` in sim code  |
//! | `unseeded-rng`         | `rand::thread_rng()`/`random()` bypassing the seed  |
//! | `lossy-time-cast`      | bare `as u64`/`as i64` on `Time`/`Rate` values      |
//! | `hot-path-unwrap`      | `unwrap()`/`expect()` in scheduler/sim hot paths    |
//! | `allow-without-reason` | `#[allow(...)]` with no justifying comment          |
//! | `hot-path-alloc`       | `Box::new`/`vec![`/`.to_vec()`/`.clone()` per event |
//! | `float-order`          | f64/f32 accumulation over iterated collections      |
//! | `layering`             | upward crate edges / module cycles in the sim DAG   |
//! | `shared-state`         | interior mutability & globals in sim-state crates   |
//! | `event-exhaustiveness` | `_ =>` arms over sim-critical enums                 |
//!
//! Any finding can be silenced in place with an annotation comment:
//!
//! ```text
//! // simlint::allow(rule-name, why this site is safe)
//! ```
//!
//! on the same line as the finding or the line immediately above it. The
//! reason is mandatory; `simlint::allow(rule)` without one is itself
//! reported under `allow-without-reason`.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::parse::{in_test_region, ParsedFile};

/// One of the eleven lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no `HashMap`/`HashSet` in simulation-state crates.
    NondeterministicMap,
    /// R2: no `Instant`/`SystemTime`/`thread::sleep` anywhere in the
    /// workspace; wall-clock measurement belongs to the benchmark, which
    /// lives outside it.
    WallClock,
    /// R3: no `rand::thread_rng()`/`random()`; randomness flows through the
    /// seeded `simcore` RNG.
    UnseededRng,
    /// R4: no bare `as u64`/`as i64` casts on `Time`/`Rate` expressions.
    LossyTimeCast,
    /// R5: no `unwrap()`/`expect()` in non-test hot-path code.
    HotPathUnwrap,
    /// R6: no `#[allow(...)]` without a reason comment.
    AllowWithoutReason,
    /// R7: no `Box::new`/`vec![`/`.to_vec()`/`.clone()` in non-test
    /// hot-path code — per-event heap traffic belongs in the packet arena
    /// or a setup path.
    HotPathAlloc,
    /// R8: no `f64`/`f32` accumulation over iterated collections
    /// (`.sum::<f64>()`, float-typed `.sum()`/`.product()`, float-seeded
    /// `.fold(...)`) in simulation-state crates — float addition is not
    /// associative, so any refactor that reorders the iteration silently
    /// perturbs results. Accumulate in integer units (the fluid model's
    /// u128 byte-picoseconds, `u64` byte counters) and convert to float at
    /// the edge, or annotate why the ordering is pinned.
    FloatOrder,
    /// R9: the crate DAG is one-way (`simcore <- {netsim, prioplus} <-
    /// transport <- workloads <- experiments`) and module graphs
    /// inside sim-state crates are acyclic. Enforced from both `Cargo.toml`
    /// dependencies and resolved `use`/path references (dev-dependency
    /// cycles are legal to cargo; they are not legal here). A future
    /// `partition` layer must be physically unable to reach back into
    /// global `Sim` state.
    Layering,
    /// R10: no interior mutability (`RefCell`/`Cell`/`Mutex`/`RwLock`/
    /// atomics), `static mut`, or `thread_local!` in sim-state crates —
    /// all mutation goes through the `&mut` the event loop hands out, so
    /// a partitioned run cannot race through a side channel. The driver
    /// crate (`experiments`) stays free to use them.
    SharedState,
    /// R11: no wildcard `_ =>` arm in a match over a sim-critical enum
    /// (`Event`, `ViolationKind`, `Buggify`, `FaultKind`) in sim-state
    /// crates — adding a variant (e.g. `Event::NullMessage` for PDES)
    /// must force every dispatch site to handle it explicitly.
    EventExhaustiveness,
}

impl Rule {
    /// Every rule, in diagnostic order.
    pub const ALL: [Rule; 11] = [
        Rule::NondeterministicMap,
        Rule::WallClock,
        Rule::UnseededRng,
        Rule::LossyTimeCast,
        Rule::HotPathUnwrap,
        Rule::AllowWithoutReason,
        Rule::HotPathAlloc,
        Rule::FloatOrder,
        Rule::Layering,
        Rule::SharedState,
        Rule::EventExhaustiveness,
    ];

    /// The kebab-case name used in diagnostics and `simlint::allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::NondeterministicMap => "nondeterministic-map",
            Rule::WallClock => "wall-clock",
            Rule::UnseededRng => "unseeded-rng",
            Rule::LossyTimeCast => "lossy-time-cast",
            Rule::HotPathUnwrap => "hot-path-unwrap",
            Rule::AllowWithoutReason => "allow-without-reason",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::FloatOrder => "float-order",
            Rule::Layering => "layering",
            Rule::SharedState => "shared-state",
            Rule::EventExhaustiveness => "event-exhaustiveness",
        }
    }

    /// Parse a rule name as written in an allow annotation.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.name() == s)
    }

    /// Whether this rule applies to the file at workspace-relative `path`
    /// (forward slashes).
    pub fn applies_to(self, path: &str) -> bool {
        match self {
            // Simulation-state crates: anything whose in-memory collections
            // feed the event loop or the recorded results.
            Rule::NondeterministicMap => [
                "crates/simcore/",
                "crates/netsim/",
                "crates/transport/",
                "crates/workloads/",
            ]
            .iter()
            .any(|p| path.starts_with(p)),
            Rule::WallClock => true,
            Rule::UnseededRng => true,
            Rule::LossyTimeCast => true,
            // The two hottest files named by the rule.
            Rule::HotPathUnwrap => {
                path == "crates/simcore/src/sched.rs" || path == "crates/netsim/src/sim.rs"
            }
            Rule::AllowWithoutReason => true,
            // The per-event files: scheduler sift, event loop (including
            // the `pop_batch` queue front-end in event.rs), switch model,
            // and the snapshot/restore path (cold by contract — every
            // allocation there must carry an explicit cold-path allow, so
            // hot-loop code can never quietly migrate in).
            Rule::HotPathAlloc => {
                path == "crates/simcore/src/sched.rs"
                    || path == "crates/simcore/src/event.rs"
                    || path == "crates/netsim/src/sim.rs"
                    || path == "crates/netsim/src/node.rs"
                    || path == "crates/netsim/src/snapshot.rs"
            }
            // Same scope as R1: the crates whose values feed simulation
            // state or recorded results.
            Rule::FloatOrder => [
                "crates/simcore/",
                "crates/netsim/",
                "crates/transport/",
                "crates/workloads/",
            ]
            .iter()
            .any(|p| path.starts_with(p)),
            // Layering applies everywhere: the crate DAG covers the whole
            // workspace and the module-cycle scope is narrowed in
            // `crate::index` itself.
            Rule::Layering => true,
            // The PDES-state crates: everything that holds or mutates
            // simulation state, including the paper's algorithm crate
            // (`crates/core` = prioplus). Driver crates stay free.
            Rule::SharedState | Rule::EventExhaustiveness => PDES_STATE_CRATES
                .iter()
                .any(|p| path.starts_with(p)),
        }
    }
}

/// Crates whose state a sharded (PDES) run would partition: interior
/// mutability and silently-ignored event variants are banned here.
const PDES_STATE_CRATES: [&str; 5] = [
    "crates/simcore/",
    "crates/netsim/",
    "crates/transport/",
    "crates/workloads/",
    "crates/core/",
];

/// Interior-mutability / shared-state type names banned by R10.
const SHARED_STATE_TYPES: [&str; 10] = [
    "RefCell", "Cell", "UnsafeCell", "OnceCell", "LazyCell", "Mutex", "RwLock", "OnceLock",
    "LazyLock", "Condvar",
];

/// Enums whose dispatch sites must stay exhaustive under R11.
pub(crate) const CRITICAL_ENUMS: [&str; 4] = ["Event", "ViolationKind", "Buggify", "FaultKind"];

/// A single diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which rule fired.
    pub rule: Rule,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
    /// `Some(reason)` when a `simlint::allow` annotation covers this site.
    pub allowed: Option<String>,
}

/// A parsed `simlint::allow(rule, reason)` annotation.
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) rule: Rule,
    pub(crate) reason: String,
}

/// Scan comments for allow annotations. Malformed annotations (unknown rule
/// or missing reason) are returned as findings instead of silently ignored.
pub(crate) fn collect_allows(lexed: &Lexed) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut bad = Vec::new();
    for c in &lexed.comments {
        // Annotations are only valid in plain `//` comments: doc comments
        // (`///`, `//!` — text starting with `/` or `!` after the marker)
        // merely *describe* the grammar and must not activate it.
        if c.text.starts_with('/') || c.text.starts_with('!') {
            continue;
        }
        let mut rest = c.text.as_str();
        while let Some(pos) = rest.find("simlint::allow(") {
            rest = &rest[pos + "simlint::allow(".len()..];
            let close = match rest.find(')') {
                Some(i) => i,
                None => {
                    bad.push(Finding {
                        rule: Rule::AllowWithoutReason,
                        line: c.line,
                        col: 1,
                        message: "unterminated simlint::allow annotation".into(),
                        allowed: None,
                    });
                    break;
                }
            };
            let body = &rest[..close];
            rest = &rest[close + 1..];
            let (name, reason) = match body.split_once(',') {
                Some((n, r)) => (n.trim(), r.trim()),
                None => (body.trim(), ""),
            };
            let rule = Rule::parse(name);
            match (rule, reason.is_empty()) {
                (Some(rule), false) => allows.push(Allow {
                    line: c.line,
                    rule,
                    reason: reason.to_string(),
                }),
                (Some(_), true) => bad.push(Finding {
                    rule: Rule::AllowWithoutReason,
                    line: c.line,
                    col: 1,
                    message: format!(
                        "simlint::allow({name}) is missing a reason; \
                         write simlint::allow({name}, why-this-is-safe)"
                    ),
                    allowed: None,
                }),
                (None, _) => bad.push(Finding {
                    rule: Rule::AllowWithoutReason,
                    line: c.line,
                    col: 1,
                    message: format!("simlint::allow names unknown rule {name:?}"),
                    allowed: None,
                }),
            }
        }
    }
    (allows, bad)
}

/// Whether the whole file is test code (integration tests, e2e drivers):
/// these directories are compiled only under `cargo test`.
pub(crate) fn whole_file_is_test(path: &str) -> bool {
    path.starts_with("tests/") || path.contains("/tests/")
}

/// The test regions to exempt for `path`: the whole file for test
/// directories, else the parsed `#[cfg(test)]`/`#[test]` regions.
pub(crate) fn effective_regions(path: &str, parsed: &ParsedFile) -> Vec<(u32, u32)> {
    if whole_file_is_test(path) {
        vec![(0, u32::MAX)]
    } else {
        parsed.test_regions.clone()
    }
}

/// Unit accessors on `Time`/`Rate` whose result must not be cast with a
/// bare `as u64`/`as i64` (truncating float getters and sign-crossing
/// integer getters alike).
const UNIT_ACCESSORS: [&str; 7] = [
    "as_ps",
    "as_ns",
    "as_bps",
    "as_us_f64",
    "as_ms_f64",
    "as_secs_f64",
    "as_gbps_f64",
];

/// Walk the postfix-expression chain ending at token index `end`
/// (exclusive: `end` is the index of the `as` keyword) and collect the
/// identifiers it mentions. Handles `recv.method(args).method2(args)` and
/// `Type::assoc(args)` chains; stops at any other operator.
fn cast_operand_idents(toks: &[Tok], end: usize) -> Vec<String> {
    let mut ids = Vec::new();
    if end == 0 {
        return ids;
    }
    let mut j = end - 1;
    loop {
        match toks[j].text.as_str() {
            ")" | "]" => {
                let open = if toks[j].text == ")" { "(" } else { "[" };
                let close = toks[j].text.clone();
                let mut depth = 1i32;
                while depth > 0 && j > 0 {
                    j -= 1;
                    if toks[j].text == close {
                        depth += 1;
                    } else if toks[j].text == open {
                        depth -= 1;
                    } else if toks[j].kind == TokKind::Ident {
                        ids.push(toks[j].text.clone());
                    }
                }
                if depth > 0 || j == 0 {
                    break;
                }
                j -= 1;
                // A call: the ident before `(` is part of the chain and is
                // handled by the next loop turn.
            }
            _ if toks[j].kind == TokKind::Ident || toks[j].kind == TokKind::Num => {
                if toks[j].kind == TokKind::Ident {
                    ids.push(toks[j].text.clone());
                }
                if j == 0 {
                    break;
                }
                // Continue only across `.` or `::` connectors.
                if toks[j - 1].text == "." {
                    if j < 2 {
                        break;
                    }
                    j -= 2;
                    continue;
                }
                if j >= 2 && toks[j - 1].text == ":" && toks[j - 2].text == ":" {
                    if j < 3 {
                        break;
                    }
                    j -= 3;
                    continue;
                }
                break;
            }
            _ => break,
        }
        // After skipping a bracket group, continue the chain walk.
        if toks[j].kind != TokKind::Ident && toks[j].kind != TokKind::Num {
            match toks[j].text.as_str() {
                ")" | "]" => continue,
                _ => break,
            }
        }
    }
    ids
}

/// Run every applicable rule over one lexed file. `path` is
/// workspace-relative with forward slashes; it selects which rules apply.
/// The cross-file half of R9 needs the whole workspace and lives in
/// [`crate::index`]; this entry point covers everything single-file.
pub fn check(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let parsed = crate::parse::parse(lexed);
    check_parsed(path, lexed, &parsed)
}

/// [`check`] with the parse already done (the workspace pass parses once
/// and shares the [`ParsedFile`] with the cross-file passes).
pub(crate) fn check_parsed(path: &str, lexed: &Lexed, parsed: &ParsedFile) -> Vec<Finding> {
    let (allows, mut findings) = collect_allows(lexed);
    // allow-without-reason findings from malformed annotations only matter
    // where R6 applies (everywhere, in practice).
    findings.retain(|_| Rule::AllowWithoutReason.applies_to(path));
    let regions = effective_regions(path, parsed);
    findings.extend(token_findings(path, lexed, &regions));
    findings.extend(file_semantic_findings(path, parsed, &regions));
    apply_allows(&allows, &mut findings);
    findings.sort_by_key(|f| (f.line, f.col, f.rule));
    findings
}

/// Apply allow annotations: an allow on line L covers findings for its
/// rule on L (trailing comment) and L+1 (comment on its own line above).
pub(crate) fn apply_allows(allows: &[Allow], findings: &mut [Finding]) {
    for f in findings {
        if let Some(a) = allows
            .iter()
            .find(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line))
        {
            f.allowed = Some(a.reason.clone());
        }
    }
}

/// R10 (glob imports) + R11: the single-file semantic rules, driven by the
/// item-level parse rather than raw tokens.
pub(crate) fn file_semantic_findings(
    path: &str,
    parsed: &ParsedFile,
    regions: &[(u32, u32)],
) -> Vec<Finding> {
    let mut findings = Vec::new();
    // R10: a glob import of std::cell / std::sync smuggles every banned
    // type in under its bare name; the token pass can't see it.
    if Rule::SharedState.applies_to(path) {
        for u in &parsed.uses {
            if !u.glob || in_test_region(regions, u.line) {
                continue;
            }
            let segs: Vec<&str> = u.segs.iter().map(|s| s.as_str()).collect();
            if matches!(segs.as_slice(), ["std" | "core", "cell" | "sync", ..]) {
                findings.push(Finding {
                    rule: Rule::SharedState,
                    line: u.line,
                    col: 1,
                    message: format!(
                        "glob import of {}::{}::* pulls interior-mutability types into a \
                         sim-state crate; import the specific items needed",
                        segs[0], segs[1]
                    ),
                    allowed: None,
                });
            }
        }
    }
    // R11: wildcard arms over sim-critical enums.
    if Rule::EventExhaustiveness.applies_to(path) {
        for m in &parsed.matches {
            if in_test_region(regions, m.line) {
                continue;
            }
            let mut heads: Vec<&str> = m
                .arms
                .iter()
                .flat_map(|a| a.enum_heads.iter().map(|h| h.as_str()))
                .filter(|h| CRITICAL_ENUMS.contains(h))
                .collect();
            heads.sort_unstable();
            heads.dedup();
            if heads.is_empty() {
                continue;
            }
            for arm in &m.arms {
                // A guarded `_ if cond =>` arm is a deliberate catch-some,
                // not a catch-all; only the bare wildcard is flagged.
                if arm.wildcard && !arm.guarded {
                    findings.push(Finding {
                        rule: Rule::EventExhaustiveness,
                        line: arm.line,
                        col: 1,
                        message: format!(
                            "wildcard `_ =>` arm in a match dispatching {}: adding a \
                             variant (e.g. Event::NullMessage for PDES) must force every \
                             dispatch site to handle it; list the remaining variants \
                             explicitly",
                            heads.join("/")
                        ),
                        allowed: None,
                    });
                }
            }
        }
    }
    findings
}

/// The token-level rules (R1–R8 plus R10's named types), one linear scan.
pub(crate) fn token_findings(path: &str, lexed: &Lexed, regions: &[(u32, u32)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let toks = &lexed.toks;
    let t = |i: usize| -> &str { &toks[i].text };
    for i in 0..toks.len() {
        let tok = &toks[i];
        if tok.kind != TokKind::Ident {
            // R6: `#[allow(...)]` / `#![allow(...)]` attributes.
            if tok.text == "#" && Rule::AllowWithoutReason.applies_to(path) {
                let j = if i + 1 < toks.len() && t(i + 1) == "!" { i + 2 } else { i + 1 };
                if j + 1 < toks.len() && t(j) == "[" && t(j + 1) == "allow" {
                    let has_reason = lexed
                        .comments
                        .iter()
                        .any(|c| c.line == tok.line || c.line + 1 == tok.line);
                    if !has_reason {
                        findings.push(Finding {
                            rule: Rule::AllowWithoutReason,
                            line: tok.line,
                            col: tok.col,
                            message: "#[allow(...)] without a reason comment on the same \
                                      or preceding line"
                                .into(),
                            allowed: None,
                        });
                    }
                }
            }
            continue;
        }
        match tok.text.as_str() {
            // R1
            "HashMap" | "HashSet" if Rule::NondeterministicMap.applies_to(path) => {
                findings.push(Finding {
                    rule: Rule::NondeterministicMap,
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "{} iteration order is nondeterministic and breaks replay; \
                         use BTreeMap/BTreeSet or sorted iteration",
                        tok.text
                    ),
                    allowed: None,
                });
            }
            // R2
            "Instant" | "SystemTime" if Rule::WallClock.applies_to(path) => {
                findings.push(Finding {
                    rule: Rule::WallClock,
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "{} reads the wall clock; simulation code must use simcore::Time",
                        tok.text
                    ),
                    allowed: None,
                });
            }
            "sleep"
                if Rule::WallClock.applies_to(path)
                    && i >= 3
                    && t(i - 1) == ":"
                    && t(i - 2) == ":"
                    && t(i - 3) == "thread" =>
            {
                findings.push(Finding {
                    rule: Rule::WallClock,
                    line: tok.line,
                    col: tok.col,
                    message: "thread::sleep blocks on wall-clock time; schedule a \
                              simulated event instead"
                        .into(),
                    allowed: None,
                });
            }
            // R3
            "thread_rng" if Rule::UnseededRng.applies_to(path) => {
                findings.push(Finding {
                    rule: Rule::UnseededRng,
                    line: tok.line,
                    col: tok.col,
                    message: "thread_rng() is unseeded; all randomness must flow through \
                              simcore's seeded RNG"
                        .into(),
                    allowed: None,
                });
            }
            // A free-function call `random(...)` (not a method or an fn
            // definition), or any `rand::random` path (covers turbofish).
            "random"
                if Rule::UnseededRng.applies_to(path)
                    && ((i + 1 < toks.len()
                        && t(i + 1) == "("
                        && (i == 0 || (t(i - 1) != "." && t(i - 1) != "fn")))
                        || (i >= 3
                            && t(i - 1) == ":"
                            && t(i - 2) == ":"
                            && t(i - 3) == "rand")) =>
            {
                findings.push(Finding {
                    rule: Rule::UnseededRng,
                    line: tok.line,
                    col: tok.col,
                    message: "random() is unseeded; all randomness must flow through \
                              simcore's seeded RNG"
                        .into(),
                    allowed: None,
                });
            }
            // R4
            "as" if Rule::LossyTimeCast.applies_to(path)
                && i + 1 < toks.len()
                && (t(i + 1) == "u64" || t(i + 1) == "i64") =>
            {
                let ids = cast_operand_idents(toks, i);
                let mentions_type = ids
                    .iter()
                    .any(|id| id == "Time" || id == "Rate" || id == "TimeDelta");
                let unit_getter = ids
                    .first()
                    .map(|id| UNIT_ACCESSORS.contains(&id.as_str()))
                    .unwrap_or(false);
                if mentions_type || unit_getter {
                    findings.push(Finding {
                        rule: Rule::LossyTimeCast,
                        line: tok.line,
                        col: tok.col,
                        message: format!(
                            "bare `as {}` on a Time/Rate-derived value can silently \
                             truncate or wrap; use a checked conversion",
                            t(i + 1)
                        ),
                        allowed: None,
                    });
                }
            }
            // R7: constructor allocations.
            "Box"
                if Rule::HotPathAlloc.applies_to(path)
                    && i + 3 < toks.len()
                    && t(i + 1) == ":"
                    && t(i + 2) == ":"
                    && t(i + 3) == "new"
                    && !in_test_region(regions, tok.line) =>
            {
                findings.push(Finding {
                    rule: Rule::HotPathAlloc,
                    line: tok.line,
                    col: tok.col,
                    message: "Box::new in a hot path heap-allocates per event; pool the \
                              allocation (packet arena / recycle stack) or move it to setup"
                        .into(),
                    allowed: None,
                });
            }
            // R7: `vec![...]` literal.
            "vec"
                if Rule::HotPathAlloc.applies_to(path)
                    && i + 1 < toks.len()
                    && t(i + 1) == "!"
                    && !in_test_region(regions, tok.line) =>
            {
                findings.push(Finding {
                    rule: Rule::HotPathAlloc,
                    line: tok.line,
                    col: tok.col,
                    message: "vec![] in a hot path heap-allocates per event; reuse a \
                              buffer or move the allocation to setup"
                        .into(),
                    allowed: None,
                });
            }
            // R7: copying method calls.
            "to_vec" | "clone"
                if Rule::HotPathAlloc.applies_to(path)
                    && i + 1 < toks.len()
                    && t(i + 1) == "("
                    && i >= 1
                    && t(i - 1) == "."
                    && !in_test_region(regions, tok.line) =>
            {
                findings.push(Finding {
                    rule: Rule::HotPathAlloc,
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "{}() in a hot path copies the container per event; borrow it or \
                         move the copy off the per-event path",
                        tok.text
                    ),
                    allowed: None,
                });
            }
            // R8: float accumulation over an iterated collection. Three
            // lexical shapes cover the std reduction entry points:
            //   .sum::<f64>() / .product::<f32>()   — turbofish-typed
            //   let x: f64 = it.sum();              — statement mentions f64
            //   it.fold(0.0, ..)                    — float-seeded fold
            "sum" | "product"
                if Rule::FloatOrder.applies_to(path)
                    && i >= 1
                    && t(i - 1) == "."
                    && !in_test_region(regions, tok.line)
                    && {
                        let turbofish_float = i + 4 < toks.len()
                            && t(i + 1) == ":"
                            && t(i + 2) == ":"
                            && t(i + 3) == "<"
                            && (t(i + 4) == "f64" || t(i + 4) == "f32");
                        // For an untyped `.sum()`, look back through the
                        // enclosing statement for a float type ascription.
                        let stmt_mentions_float = t(i + 1) == "(" && {
                            let mut j = i;
                            let mut hit = false;
                            while j > 0 {
                                j -= 1;
                                match t(j) {
                                    ";" | "{" | "}" => break,
                                    "f64" | "f32" => {
                                        hit = true;
                                        break;
                                    }
                                    _ => {}
                                }
                            }
                            hit
                        };
                        turbofish_float || stmt_mentions_float
                    } =>
            {
                findings.push(Finding {
                    rule: Rule::FloatOrder,
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "float {}() over an iterated collection: f64 addition is not \
                         associative, so reordering the iteration perturbs results; \
                         accumulate in integer units or annotate why the order is pinned",
                        tok.text
                    ),
                    allowed: None,
                });
            }
            "fold"
                if Rule::FloatOrder.applies_to(path)
                    && i >= 1
                    && t(i - 1) == "."
                    && i + 2 < toks.len()
                    && t(i + 1) == "("
                    && toks[i + 2].kind == TokKind::Num
                    && (t(i + 2).contains('.')
                        || t(i + 2).ends_with("f64")
                        || t(i + 2).ends_with("f32"))
                    && !in_test_region(regions, tok.line) =>
            {
                findings.push(Finding {
                    rule: Rule::FloatOrder,
                    line: tok.line,
                    col: tok.col,
                    message: "float-seeded fold() over an iterated collection: f64 \
                              addition is not associative, so reordering the iteration \
                              perturbs results; accumulate in integer units or annotate \
                              why the order is pinned"
                        .into(),
                    allowed: None,
                });
            }
            // R5
            "unwrap" | "expect"
                if Rule::HotPathUnwrap.applies_to(path)
                    && i + 1 < toks.len()
                    && t(i + 1) == "("
                    && i >= 1
                    && t(i - 1) == "."
                    && !in_test_region(regions, tok.line) =>
            {
                findings.push(Finding {
                    rule: Rule::HotPathUnwrap,
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "{}() in a hot path can abort a run mid-simulation; handle the \
                         None/Err case or annotate why it is unreachable",
                        tok.text
                    ),
                    allowed: None,
                });
            }
            // R10: named interior-mutability / shared-state types, plus
            // the macro and keyword forms.
            name if Rule::SharedState.applies_to(path)
                && !in_test_region(regions, tok.line)
                && (SHARED_STATE_TYPES.contains(&name) || name.starts_with("Atomic")) =>
            {
                findings.push(Finding {
                    rule: Rule::SharedState,
                    line: tok.line,
                    col: tok.col,
                    message: format!(
                        "{name} is interior-mutability shared state; sim-state crates \
                         route all mutation through the &mut the event loop hands out \
                         so a partitioned run cannot race through a side channel",
                    ),
                    allowed: None,
                });
            }
            "thread_local"
                if Rule::SharedState.applies_to(path)
                    && !in_test_region(regions, tok.line) =>
            {
                findings.push(Finding {
                    rule: Rule::SharedState,
                    line: tok.line,
                    col: tok.col,
                    message: "thread_local! storage bypasses the event loop's ownership \
                              of sim state and desynchronizes partitioned runs"
                        .into(),
                    allowed: None,
                });
            }
            "static"
                if Rule::SharedState.applies_to(path)
                    && i + 1 < toks.len()
                    && t(i + 1) == "mut"
                    && !in_test_region(regions, tok.line) =>
            {
                findings.push(Finding {
                    rule: Rule::SharedState,
                    line: tok.line,
                    col: tok.col,
                    message: "static mut is global shared state; sim state lives in Sim \
                              and is mutated only through the event loop's &mut"
                        .into(),
                    allowed: None,
                });
            }
            _ => {}
        }
    }
    findings
}
