//! Rule checks over the token stream (and structural index) of one file.

use crate::lexer::{lex, parse_escapes, Heat, Tok, TokKind};
use crate::parse::{analyze, is_wildcard_pattern, standalone_extent, FnSpan};

/// Crates whose behavior feeds the deterministic simulation; D1/D2/S1
/// apply only here.
pub const SIM_CRITICAL: &[&str] = &[
    "netsim",
    "core",
    "dataplane",
    "wire",
    "transport",
    "telemetry",
];

/// Crates whose outputs feed the byte-identical digest gates; F1 bans
/// float arithmetic/formatting here. Telemetry is deliberately absent:
/// its quantile code carries audited escapes instead.
pub const DIGEST_CRITICAL: &[&str] = &["core", "netsim", "wire", "dataplane", "transport"];

/// Modules where every function is allocation-checked (A1) by default;
/// opt out per function with `// mmt-lint: cold`. Matched by path
/// suffix.
pub const HOT_MODULES: &[&str] = &[
    "netsim/src/wheel.rs",
    "netsim/src/arena.rs",
    "wire/src/mmt/repr.rs",
    "wire/src/mmt/ext.rs",
    "wire/src/mmt/header.rs",
    "netsim/src/shard.rs",
];

/// Every rule id an escape may name.
pub const KNOWN_RULES: &[&str] = &["D1", "D2", "P1", "U1", "S1", "ESC", "F1", "A1", "W1", "E1"];

/// How a file is classified for rule scoping.
#[derive(Debug, Clone, Default)]
pub struct FileClass {
    /// Workspace crate the file belongs to (`core`, `netsim`, `mmt`, ...).
    pub crate_name: String,
    /// True when the crate is in [`SIM_CRITICAL`].
    pub sim_critical: bool,
    /// True for test/bench/example code (path-based).
    pub is_test: bool,
    /// True for binary entry points (`src/main.rs`, `src/bin/*`).
    pub is_bin: bool,
    /// True for crate roots, which must carry `#![forbid(unsafe_code)]`.
    pub is_crate_root: bool,
    /// True for the sim-clock / seeded-RNG modules that D2 exempts.
    pub d2_exempt: bool,
    /// True when the crate is in [`DIGEST_CRITICAL`] (F1 applies).
    pub digest_critical: bool,
    /// True for files in [`HOT_MODULES`] (A1 applies to every function
    /// not marked `// mmt-lint: cold`).
    pub hot_module: bool,
}

/// Classify a file by its (normalized, `/`-separated) path. When
/// `assume_crate` is set, the crate name is forced and the path-based
/// test/bin exemptions are bypassed (fixture files live under `tests/`
/// but must lint as library code); `#[cfg(test)]` regions are still
/// honored.
pub fn classify(path: &str, assume_crate: Option<&str>) -> FileClass {
    let norm = path.replace('\\', "/");
    let crate_name = match assume_crate {
        Some(n) => n.to_string(),
        None => crate_from_path(&norm),
    };
    let forced = assume_crate.is_some();
    let is_test = !forced
        && (norm.contains("/tests/")
            || norm.starts_with("tests/")
            || norm.contains("/benches/")
            || norm.contains("/examples/"));
    let is_bin = !forced && (norm.contains("src/bin/") || norm.ends_with("src/main.rs"));
    let is_crate_root =
        norm.ends_with("src/lib.rs") || norm.ends_with("src/main.rs") || norm.contains("src/bin/");
    let d2_exempt = norm.ends_with("src/rng.rs") || norm.ends_with("src/time.rs");
    let hot_module = HOT_MODULES.iter().any(|m| norm.ends_with(m));
    FileClass {
        sim_critical: SIM_CRITICAL.contains(&crate_name.as_str()),
        digest_critical: DIGEST_CRITICAL.contains(&crate_name.as_str()),
        crate_name,
        is_test,
        is_bin,
        is_crate_root,
        d2_exempt,
        hot_module,
    }
}

fn crate_from_path(norm: &str) -> String {
    if let Some(idx) = norm.find("crates/") {
        let rest = norm.get(idx + "crates/".len()..).unwrap_or("");
        if let Some(end) = rest.find('/') {
            return rest.get(..end).unwrap_or("").to_string();
        }
    }
    // Root facade package (`src/`, `tests/`, `src/bin/mmt-sim.rs`).
    "mmt".to_string()
}

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Violation {
    /// Display path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id (`D1`, `D2`, `P1`, `U1`, `S1`, `ESC`, `F1`, `A1`, `W1`,
    /// `E1`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Compute `(start_line, end_line)` regions covered by a `#[test]` /
/// `#[cfg(test)]`-gated item (function or `mod tests { ... }` body).
pub fn test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_attr_start(toks, i) {
            i += 1;
            continue;
        }
        let start_line = toks.get(i).map(|t| t.line).unwrap_or(1);
        let (after, idents) = consume_attr(toks, i);
        let is_test_attr = idents.iter().any(|s| s == "test") && !idents.iter().any(|s| s == "not");
        if !is_test_attr {
            i = after;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = after;
        while is_attr_start(toks, j) {
            let (next, _) = consume_attr(toks, j);
            j = next;
        }
        let end_line = item_end_line(toks, j);
        regions.push((start_line, end_line));
        i = j;
    }
    regions
}

fn is_attr_start(toks: &[Tok], i: usize) -> bool {
    matches!(toks.get(i), Some(t) if t.kind == TokKind::Punct('#'))
        && (matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('['))
            || (matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('!'))
                && matches!(toks.get(i + 2), Some(t) if t.kind == TokKind::Punct('['))))
}

/// Consume an attribute starting at `i`; returns (index past `]`,
/// idents seen inside).
fn consume_attr(toks: &[Tok], i: usize) -> (usize, Vec<String>) {
    let mut j = i;
    // Skip '#' and optional '!'.
    while matches!(
        toks.get(j),
        Some(t) if matches!(t.kind, TokKind::Punct('#') | TokKind::Punct('!'))
    ) {
        j += 1;
    }
    let mut idents = Vec::new();
    if !matches!(toks.get(j), Some(t) if t.kind == TokKind::Punct('[')) {
        return (j, idents);
    }
    let mut depth = 0i32;
    while let Some(t) = toks.get(j) {
        match &t.kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (j + 1, idents);
                }
            }
            TokKind::Ident(s) => idents.push(s.clone()),
            _ => {}
        }
        j += 1;
    }
    (j, idents)
}

/// Line on which the item starting at token `i` ends: the matching `}`
/// of its first depth-0 brace, or a depth-0 `;`, or the last token.
fn item_end_line(toks: &[Tok], i: usize) -> u32 {
    let mut depth = 0i32;
    let mut j = i;
    let mut in_body = false;
    while let Some(t) = toks.get(j) {
        match t.kind {
            TokKind::Punct('{') | TokKind::Punct('(') | TokKind::Punct('[') => {
                if t.kind == TokKind::Punct('{') && depth == 0 {
                    in_body = true;
                }
                depth += 1;
            }
            TokKind::Punct('}') | TokKind::Punct(')') | TokKind::Punct(']') => {
                depth -= 1;
                if in_body && depth == 0 {
                    return t.line;
                }
            }
            TokKind::Punct(';') if depth == 0 => return t.line,
            _ => {}
        }
        j += 1;
    }
    toks.last().map(|t| t.line).unwrap_or(1)
}

/// Result of checking one file: the kept diagnostics plus the number of
/// valid escapes present (feeds the scan-level escape budget).
#[derive(Debug, Default)]
pub struct FileCheck {
    /// Escape-filtered, line-ordered violations.
    pub violations: Vec<Violation>,
    /// Number of well-formed `allow(...)` escapes in the file.
    pub escapes: usize,
}

/// Run every rule over one file's source; returns escape-filtered,
/// line-ordered violations.
pub fn check_file(display_path: &str, class: &FileClass, src: &str) -> Vec<Violation> {
    check_file_full(display_path, class, src).violations
}

/// Run every rule over one file's source, also reporting the escape
/// count.
pub fn check_file_full(display_path: &str, class: &FileClass, src: &str) -> FileCheck {
    let lexed = lex(src);
    let escapes = parse_escapes(&lexed.comments);
    let structure = analyze(&lexed.toks, &escapes.markers);
    let regions = test_regions(&lexed.toks);
    let in_test =
        |line: u32| class.is_test || regions.iter().any(|(a, b)| line >= *a && line <= *b);

    // Token-aware escape coverage: a trailing escape covers its own
    // line; a standalone escape also covers the full extent of the
    // statement starting on the next line (rustfmt-rewrap safe).
    let coverage: Vec<(u32, u32)> = escapes
        .valid
        .iter()
        .map(|e| {
            if e.standalone {
                (
                    e.line,
                    standalone_extent(&lexed.toks, &structure.pair, e.line),
                )
            } else {
                (e.line, e.line)
            }
        })
        .collect();

    let mut raw: Vec<Violation> = Vec::new();
    let mut push = |rule: &'static str, line: u32, message: String| {
        raw.push(Violation {
            path: display_path.to_string(),
            line,
            rule,
            message,
        });
    };

    // ESC: malformed escape comments are always reported.
    for &line in &escapes.malformed {
        push(
            "ESC",
            line,
            "malformed escape; use `// mmt-lint: allow(RULE, \"justification\")`".to_string(),
        );
    }
    // ESC: a heat marker must sit on or above a function.
    for &line in &structure.unbound_markers {
        push(
            "ESC",
            line,
            "heat marker is not attached to a function".to_string(),
        );
    }

    // U1: crate roots must forbid unsafe code.
    if class.is_crate_root && !has_forbid_unsafe(&lexed.toks) {
        push(
            "U1",
            1,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }

    let lib_code = !class.is_test && !class.is_bin;
    let toks = &lexed.toks;
    let fn_is_hot = |f: &FnSpan| match f.heat {
        Some(Heat::Hot) => true,
        Some(Heat::Cold) => false,
        None => class.hot_module,
    };
    for (i, t) in toks.iter().enumerate() {
        let f1_scope = class.digest_critical && lib_code && !in_test(t.line);
        // F1 — float literals and float format specs.
        match &t.kind {
            TokKind::Float if f1_scope => {
                push(
                    "F1",
                    t.line,
                    "float literal in digest-critical crate; use integer (ppm/fixed-point) arithmetic"
                        .to_string(),
                );
            }
            TokKind::Str(body) if f1_scope => {
                if let Some(spec) = float_format_spec(body) {
                    push(
                        "F1",
                        t.line,
                        format!("float format spec `{{:{spec}}}` in digest-critical crate; format integers instead"),
                    );
                }
            }
            _ => {}
        }
        let TokKind::Ident(id) = &t.kind else {
            continue;
        };
        // F1 — `as f64`/`as f32` feeding arithmetic, and libm-backed
        // methods whose results vary across platforms.
        if f1_scope {
            if id == "as"
                && matches!(toks.get(i + 1), Some(t) if matches!(&t.kind, TokKind::Ident(s) if s == "f64" || s == "f32"))
                && cast_in_arithmetic(toks, &structure.pair, i)
            {
                push(
                    "F1",
                    t.line,
                    "float arithmetic on an `as f64`/`as f32` cast in digest-critical crate; compute in integers"
                        .to_string(),
                );
            }
            if is_libm_method(id)
                && matches!(toks.get(i.wrapping_sub(1)), Some(t) if t.kind == TokKind::Punct('.'))
                && i > 0
                && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('('))
            {
                push(
                    "F1",
                    t.line,
                    format!(
                        "`.{id}()` is libm-backed and varies across platforms; not digest-safe"
                    ),
                );
            }
        }
        // A1 — allocation inside hot functions.
        if lib_code && !in_test(t.line) {
            if let Some(fi) = structure.innermost_fn(i) {
                if fn_is_hot(&structure.fns[fi]) {
                    if let Some(what) = allocation_at(toks, i, id) {
                        push(
                            "A1",
                            t.line,
                            format!(
                                "`{what}` allocates in hot function `{}`; preallocate, pool, or mark it `// mmt-lint: cold`",
                                structure.fns[fi].name
                            ),
                        );
                    }
                }
            }
        }
        // D1 — nondeterministic-iteration collections in sim-critical crates.
        if class.sim_critical
            && lib_code
            && !in_test(t.line)
            && (id == "HashMap" || id == "HashSet")
        {
            let alt = if id == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            push(
                "D1",
                t.line,
                format!("`{id}` has nondeterministic iteration order; use `{alt}`"),
            );
        }
        // D2 — ambient nondeterminism outside the sim clock / seeded RNG.
        // Clocks, environment, sockets, and threads all smuggle the host
        // into sim-critical code; the real I/O plane lives in `mmt-io`,
        // the one crate where they belong.
        if class.sim_critical && lib_code && !class.d2_exempt && !in_test(t.line) {
            if id == "Instant" || id == "SystemTime" {
                push(
                    "D2",
                    t.line,
                    format!("`{id}` reads wall-clock time; use the sim clock"),
                );
            }
            if id == "UdpSocket" || id == "TcpStream" || id == "TcpListener" {
                push(
                    "D2",
                    t.line,
                    format!("`{id}` does real I/O; sim-critical code must stay sans-io (sockets live in mmt-io)"),
                );
            }
            if id == "std"
                && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct(':'))
                && matches!(toks.get(i + 2), Some(t) if t.kind == TokKind::Punct(':'))
            {
                if let Some(TokKind::Ident(seg)) = toks.get(i + 3).map(|t| &t.kind) {
                    match seg.as_str() {
                        "env" => push(
                            "D2",
                            t.line,
                            "`std::env` makes behavior environment-dependent; plumb config explicitly"
                                .to_string(),
                        ),
                        "net" => push(
                            "D2",
                            t.line,
                            "`std::net` does real I/O; sim-critical code must stay sans-io (sockets live in mmt-io)"
                                .to_string(),
                        ),
                        "thread" => push(
                            "D2",
                            t.line,
                            "`std::thread` introduces host scheduling; sim-critical code must stay single-threaded (threads live in mmt-io or behind an escape)"
                                .to_string(),
                        ),
                        _ => {}
                    }
                }
            }
        }
        // P1 — panics in non-test library code.
        if lib_code && !in_test(t.line) {
            let called = (id == "unwrap" || id == "expect")
                && matches!(toks.get(i.wrapping_sub(1)), Some(t) if t.kind == TokKind::Punct('.'))
                && i > 0
                && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('('));
            if called {
                push(
                    "P1",
                    t.line,
                    format!("`{id}()` can panic; return a typed error or justify with an escape"),
                );
            }
            let macro_panic = matches!(id.as_str(), "panic" | "unimplemented" | "todo")
                && matches!(toks.get(i + 1), Some(t) if t.kind == TokKind::Punct('!'));
            if macro_panic {
                push(
                    "P1",
                    t.line,
                    format!(
                        "`{id}!` in library code; return a typed error or justify with an escape"
                    ),
                );
            }
        }
        // S1 — bare arithmetic on sequence numbers.
        if class.sim_critical && lib_code && !in_test(t.line) && seq_like(id) {
            if let Some(next) = toks.get(i + 1) {
                let minus_arrow = next.kind == TokKind::Punct('-')
                    && matches!(toks.get(i + 2), Some(t) if t.kind == TokKind::Punct('>'));
                if matches!(next.kind, TokKind::Punct('+') | TokKind::Punct('-')) && !minus_arrow {
                    push(
                        "S1",
                        t.line,
                        format!(
                            "bare arithmetic on sequence number `{id}`; use wrapping_/saturating_ helpers"
                        ),
                    );
                }
            }
        }
    }

    // W1 — matches over the wire control discriminant must be
    // wildcard-free.
    if lib_code {
        for m in &structure.matches {
            if in_test(toks[m.match_tok].line) {
                continue;
            }
            let relevant = toks[m.match_tok..=m.body_close].iter().any(
                |t| matches!(&t.kind, TokKind::Ident(s) if s == "ControlRepr" || s == "ControlType"),
            );
            if !relevant {
                continue;
            }
            for arm in &m.arms {
                if is_wildcard_pattern(toks, arm.pat) {
                    push(
                        "W1",
                        arm.line,
                        "wildcard arm in `match` over the wire control discriminant; enumerate every message type"
                            .to_string(),
                    );
                }
            }
        }
    }

    // Suppression pass: a violation is dropped when a same-rule escape
    // covers its line; every matching escape is marked used (E1 input).
    // ESC violations are never suppressible.
    let mut used = vec![false; escapes.valid.len()];
    let mut out: Vec<Violation> = Vec::new();
    for v in raw {
        let mut matched = false;
        for (ei, e) in escapes.valid.iter().enumerate() {
            if e.rule == v.rule && coverage[ei].0 <= v.line && v.line <= coverage[ei].1 {
                used[ei] = true;
                matched = true;
            }
        }
        if v.rule == "ESC" || !matched {
            out.push(v);
        }
    }

    // E1 — stale-escape audit: an escape that suppressed nothing (or
    // names an unknown rule) is itself a violation. `allow(E1)` escapes
    // are exempt from the staleness check (no meta-recursion) but still
    // suppress E1 findings on their coverage. An escape whose rule is
    // scoped out of this crate entirely (an F1 escape outside the
    // digest-critical set, say) is inert, not stale: the same file may
    // be linted under several crate classes.
    let rule_in_scope = |rule: &str| match rule {
        "F1" => class.digest_critical,
        "D1" | "D2" | "S1" => class.sim_critical,
        _ => true,
    };
    let mut e1_raw: Vec<Violation> = Vec::new();
    for (ei, e) in escapes.valid.iter().enumerate() {
        if e.rule == "E1" {
            continue;
        }
        if !rule_in_scope(&e.rule) {
            continue;
        }
        if !KNOWN_RULES.contains(&e.rule.as_str()) {
            e1_raw.push(Violation {
                path: display_path.to_string(),
                line: e.line,
                rule: "E1",
                message: format!("escape names unknown rule `{}`", e.rule),
            });
        } else if !used[ei] {
            e1_raw.push(Violation {
                path: display_path.to_string(),
                line: e.line,
                rule: "E1",
                message: format!(
                    "stale escape: no {} violation fires within its coverage; delete it",
                    e.rule
                ),
            });
        }
    }
    for v in e1_raw {
        let suppressed =
            escapes.valid.iter().enumerate().any(|(ei, e)| {
                e.rule == "E1" && coverage[ei].0 <= v.line && v.line <= coverage[ei].1
            });
        if !suppressed {
            out.push(v);
        }
    }

    out.sort();
    out.dedup();
    FileCheck {
        violations: out,
        escapes: escapes.valid.len(),
    }
}

/// Format-spec scanner: returns the spec of the first `{...:spec}`
/// placeholder requesting float formatting (a precision `.N` or
/// scientific `e`/`E`).
fn float_format_spec(s: &str) -> Option<String> {
    let chars: Vec<char> = s.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] != '{' {
            i += 1;
            continue;
        }
        if chars.get(i + 1) == Some(&'{') {
            i += 2; // escaped literal brace
            continue;
        }
        let mut j = i + 1;
        while j < chars.len() && chars[j] != '}' {
            j += 1;
        }
        if j >= chars.len() {
            break;
        }
        let inner: String = chars[i + 1..j].iter().collect();
        if let Some(colon) = inner.find(':') {
            let spec = &inner[colon + 1..];
            if spec.contains('.') || spec.ends_with('e') || spec.ends_with('E') {
                return Some(spec.to_string());
            }
        }
        i = j + 1;
    }
    None
}

/// Methods whose float results come from libm and are not bit-exact
/// across platforms. `sqrt`, `floor`, `ceil`, `round`, `trunc`, `abs`
/// are IEEE-exact and deliberately absent.
fn is_libm_method(id: &str) -> bool {
    matches!(
        id,
        "ln" | "log"
            | "log2"
            | "log10"
            | "ln_1p"
            | "exp"
            | "exp2"
            | "exp_m1"
            | "powf"
            | "powi"
            | "sin"
            | "cos"
            | "tan"
            | "asin"
            | "acos"
            | "atan"
            | "atan2"
            | "sinh"
            | "cosh"
            | "tanh"
            | "asinh"
            | "acosh"
            | "atanh"
            | "cbrt"
            | "hypot"
    )
}

/// True when the `as f64`/`as f32` cast at token `i_as` feeds (or is
/// fed by) arithmetic: the token after the target type, or the token
/// before the cast operand's start, is `+ - * / %`.
fn cast_in_arithmetic(toks: &[Tok], pair: &[usize], i_as: usize) -> bool {
    let arith = |t: Option<&Tok>| {
        matches!(
            t.map(|t| &t.kind),
            Some(
                TokKind::Punct('+')
                    | TokKind::Punct('-')
                    | TokKind::Punct('*')
                    | TokKind::Punct('/')
                    | TokKind::Punct('%')
            )
        )
    };
    if arith(toks.get(i_as + 2)) {
        return true;
    }
    let start = cast_operand_start(toks, pair, i_as);
    start > 0 && arith(toks.get(start - 1))
}

/// Walk backwards from the `as` keyword over the cast's operand — a
/// postfix chain of idents, literals, `.` field/method accesses, calls,
/// and parenthesized groups — returning the operand's first token index.
fn cast_operand_start(toks: &[Tok], pair: &[usize], i_as: usize) -> usize {
    let mut j = i_as;
    loop {
        if j == 0 {
            return 0;
        }
        match &toks[j - 1].kind {
            TokKind::Punct(')') | TokKind::Punct(']') => {
                let open = pair[j - 1];
                if open == crate::parse::UNMATCHED {
                    return j - 1;
                }
                j = open;
                // A call or index: absorb the callee name.
                if j > 0 && matches!(&toks[j - 1].kind, TokKind::Ident(_)) {
                    j -= 1;
                }
                if j > 0 && toks[j - 1].kind == TokKind::Punct('.') {
                    j -= 1;
                    continue;
                }
                return j;
            }
            TokKind::Ident(_) | TokKind::Num | TokKind::Float => {
                j -= 1;
                if j > 0 && toks[j - 1].kind == TokKind::Punct('.') {
                    j -= 1;
                    continue;
                }
                return j;
            }
            _ => return j,
        }
    }
}

/// If the identifier at token `i` is an allocating call in A1's list,
/// return its display form.
fn allocation_at(toks: &[Tok], i: usize, id: &str) -> Option<String> {
    let next_is =
        |k: char, off: usize| matches!(toks.get(i + off), Some(t) if t.kind == TokKind::Punct(k));
    // Vec::new / Vec::with_capacity / String::new / String::from /
    // String::with_capacity / Box::new
    if matches!(id, "Vec" | "String" | "Box") && next_is(':', 1) && next_is(':', 2) {
        if let Some(Tok {
            kind: TokKind::Ident(m),
            ..
        }) = toks.get(i + 3)
        {
            let flagged = match id {
                "Vec" => matches!(m.as_str(), "new" | "with_capacity"),
                "String" => matches!(m.as_str(), "new" | "from" | "with_capacity"),
                "Box" => m == "new",
                _ => false,
            };
            if flagged {
                return Some(format!("{id}::{m}"));
            }
        }
    }
    // vec! / format!
    if matches!(id, "vec" | "format") && next_is('!', 1) {
        return Some(format!("{id}!"));
    }
    // .to_vec() / .to_string() / .to_owned() / .clone()
    if matches!(id, "to_vec" | "to_string" | "to_owned" | "clone")
        && i > 0
        && matches!(toks.get(i - 1), Some(t) if t.kind == TokKind::Punct('.'))
        && next_is('(', 1)
    {
        return Some(format!(".{id}()"));
    }
    None
}

fn seq_like(id: &str) -> bool {
    id == "seq" || id == "sequence" || id.ends_with("_seq")
}

fn has_forbid_unsafe(toks: &[Tok]) -> bool {
    toks.windows(8).any(|w| {
        matches!(&w[0].kind, TokKind::Punct('#'))
            && matches!(&w[1].kind, TokKind::Punct('!'))
            && matches!(&w[2].kind, TokKind::Punct('['))
            && matches!(&w[3].kind, TokKind::Ident(s) if s == "forbid")
            && matches!(&w[4].kind, TokKind::Punct('('))
            && matches!(&w[5].kind, TokKind::Ident(s) if s == "unsafe_code")
            && matches!(&w[6].kind, TokKind::Punct(')'))
            && matches!(&w[7].kind, TokKind::Punct(']'))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class_sim() -> FileClass {
        classify("crates/core/src/x.rs", None)
    }

    #[test]
    fn classify_paths() {
        let c = classify("crates/netsim/src/link.rs", None);
        assert!(c.sim_critical && !c.is_test && !c.is_bin && !c.is_crate_root);
        let c = classify("crates/pilot/src/lib.rs", None);
        assert!(!c.sim_critical && c.is_crate_root);
        let c = classify("src/bin/mmt-sim.rs", None);
        assert!(c.is_bin && c.is_crate_root && c.crate_name == "mmt");
        let c = classify("crates/core/tests/roundtrip.rs", None);
        assert!(c.is_test);
        let c = classify("crates/lint/tests/fixtures/p1/src/code.rs", Some("core"));
        assert!(c.sim_critical && !c.is_test && !c.is_bin);
    }

    #[test]
    fn d1_flags_and_escapes() {
        let src = "use std::collections::HashMap;\nfn f() -> HashMap<u32, u32> { HashMap::new() } // mmt-lint: allow(D1, \"test helper\")\n";
        let v = check_file("x.rs", &class_sim(), src);
        // Line 1 flagged; line 2 escaped (both occurrences on that line).
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("D1", 1));
    }

    #[test]
    fn cfg_test_region_exempts_p1() {
        let src = "\
pub fn lib_code(x: Option<u32>) -> u32 { x.unwrap() }

#[cfg(test)]
mod tests {
    #[test]
    fn ok() {
        let y: Option<u32> = Some(1);
        assert_eq!(y.unwrap(), 1);
    }
}
";
        let v = check_file("crates/core/src/x.rs", &class_sim(), src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("P1", 1));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = check_file("crates/core/src/x.rs", &class_sim(), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "P1");
    }

    #[test]
    fn unwrap_or_not_flagged() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\n";
        assert!(check_file("crates/core/src/x.rs", &class_sim(), src).is_empty());
    }

    #[test]
    fn s1_arrow_is_not_subtraction() {
        let src = "fn next_seq(x: u32) -> u32 { x.wrapping_add(1) }\n";
        assert!(check_file("crates/core/src/x.rs", &class_sim(), src).is_empty());
        let bad = "fn f(seq: u64) -> u64 { seq + 1 }\n";
        let v = check_file("crates/core/src/x.rs", &class_sim(), bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "S1");
    }

    #[test]
    fn standalone_escape_covers_next_line() {
        let src = "// mmt-lint: allow(P1, \"infallible by construction\")\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        assert!(check_file("crates/core/src/x.rs", &class_sim(), src).is_empty());
    }

    #[test]
    fn u1_missing_forbid() {
        let c = classify("crates/foo/src/lib.rs", None);
        let v = check_file("crates/foo/src/lib.rs", &c, "pub fn x() {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), ("U1", 1));
        let ok = "#![forbid(unsafe_code)]\npub fn x() {}\n";
        assert!(check_file("crates/foo/src/lib.rs", &c, ok).is_empty());
    }

    #[test]
    fn esc_reported_for_malformed() {
        let src = "fn f() {} // mmt-lint: allow(P1)\n";
        let v = check_file("crates/core/src/x.rs", &class_sim(), src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "ESC");
    }
}
