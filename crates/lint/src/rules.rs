//! The rule set: seven token-level checks encoding the ROADMAP contracts.
//! (R7 was retired together with the trait-object metric seam it guarded;
//! the remaining rules keep their numbers.)
//!
//! | rule | name                 | contract |
//! |------|----------------------|----------|
//! | R1   | `params-construction`| `SearchParams` is only built inside nsg-core's request/search modules |
//! | R2   | `hot-path-alloc`     | no allocating calls inside `// lint:hot-path` regions |
//! | R3   | `checked-narrowing`  | no bare `as u8/u16/u32/u64` in decode-path files |
//! | R4   | `safety-comment`     | every `unsafe` is adjacent to a `// SAFETY:` justification |
//! | R5   | `std-sync`           | raw `std::sync` primitives / `thread::spawn` only in `shims/` + `crates/serve` |
//! | R6   | `no-panic`           | no `unwrap()` / `expect()` / `panic!` in library code |
//! | R8   | `simd-dispatch`      | `#[target_feature]` only in the SIMD module; no kernel-table resolution in hot regions |
//!
//! All rules run over the analyzed token stream of [`SourceFile`], so text
//! inside strings and comments can never fire them. Suppression via
//! `// lint:allow(<name>): <reason>` is handled by the caller
//! ([`crate::lint_source`]).

use crate::lexer::TokenKind;
use crate::{FileClass, Finding, SourceFile};

/// Names accepted by `lint:allow(...)`.
pub const KNOWN_RULES: [&str; 7] = [
    "params-construction",
    "hot-path-alloc",
    "checked-narrowing",
    "safety-comment",
    "std-sync",
    "no-panic",
    "simd-dispatch",
];

/// One row of the rule table, for `--help`-style output and the README.
pub struct RuleInfo {
    pub name: &'static str,
    pub summary: &'static str,
}

/// Rule descriptions in R1..R8 order (R7 retired).
pub const RULES: [RuleInfo; 7] = [
    RuleInfo {
        name: "params-construction",
        summary: "SearchParams may only be constructed in nsg-core's request/search modules",
    },
    RuleInfo {
        name: "hot-path-alloc",
        summary: "no allocating calls inside `// lint:hot-path` regions",
    },
    RuleInfo {
        name: "checked-narrowing",
        summary: "no bare `as u8/u16/u32/u64` in decode-path files (use checked narrowing)",
    },
    RuleInfo {
        name: "safety-comment",
        summary: "every `unsafe` must be immediately preceded by a `// SAFETY:` comment",
    },
    RuleInfo {
        name: "std-sync",
        summary: "raw std::sync primitives / thread::spawn only in shims/ and crates/serve",
    },
    RuleInfo {
        name: "no-panic",
        summary: "no unwrap()/expect()/panic! in library (non-test/bench/bin) code",
    },
    RuleInfo {
        name: "simd-dispatch",
        summary: "`#[target_feature]` only inside the SIMD module; no kernel-table resolution in hot-path regions",
    },
];

/// Files whose job *is* constructing [`SearchParams`]: the request mapping
/// (`SearchRequest::params()`) and the definition site itself.
const R1_EXEMPT_FILES: [&str; 2] = ["crates/core/src/index.rs", "crates/core/src/search.rs"];

/// Decode-path files rule R3 audits. Everything read from bytes or foreign
/// formats flows through these.
const R3_FILES: [&str; 4] = [
    "crates/core/src/format.rs",
    "crates/core/src/snapshot.rs",
    "crates/vectors/src/quant.rs",
    "crates/vectors/src/io.rs",
];

fn finding(sf: &SourceFile<'_>, rule: &'static str, line: u32, message: String) -> Finding {
    Finding { rule, rel_path: sf.rel_path.clone(), line, message }
}

fn is_shim(sf: &SourceFile<'_>) -> bool {
    sf.rel_path.starts_with("shims/")
}

/// Runs every applicable rule over one analyzed file.
pub fn check_file(sf: &SourceFile<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    r1_params_construction(sf, &mut out);
    r2_hot_path_alloc(sf, &mut out);
    r3_checked_narrowing(sf, &mut out);
    r4_safety_comment(sf, &mut out);
    r5_std_sync(sf, &mut out);
    r6_no_panic(sf, &mut out);
    r8_simd_dispatch(sf, &mut out);
    out
}

/// R1: `SearchParams {` / `SearchParams::new` outside the audited modules.
/// Tier-1 ensures every effort knob flows through `SearchRequest::params()`.
fn r1_params_construction(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    if sf.class != FileClass::Library || R1_EXEMPT_FILES.contains(&sf.rel_path.as_str()) {
        return;
    }
    for ci in 0..sf.code.len() {
        if sf.code_in_test(ci)
            || sf.code_kind(ci) != TokenKind::Ident
            || sf.code_text(ci) != "SearchParams"
        {
            continue;
        }
        let construction = sf.code_is(ci + 1, "{")
            || (sf.code_is_pathsep(ci + 1) && sf.code_text(ci + 3) == "new");
        if construction {
            out.push(finding(
                sf,
                "params-construction",
                sf.code_line(ci),
                "SearchParams constructed outside nsg-core request/search modules — route through SearchRequest::params()".to_string(),
            ));
        }
    }
}

/// Allocating constructors R2 forbids when spelled `Type::method`.
const R2_ALLOC_TYPES: [&str; 7] =
    ["Vec", "Box", "String", "VecDeque", "HashMap", "HashSet", "BTreeMap"];
const R2_ALLOC_CTORS: [&str; 3] = ["new", "with_capacity", "from"];
/// Allocating methods R2 forbids when spelled `.method(`.
const R2_ALLOC_METHODS: [&str; 5] = ["to_vec", "to_owned", "to_string", "collect", "clone"];

/// R2: allocation inside a `// lint:hot-path` region — the static complement
/// to `tests/alloc_guard.rs`' tracking allocator.
fn r2_hot_path_alloc(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    for ci in 0..sf.code.len() {
        if !sf.code_in_hot(ci) {
            continue;
        }
        let t = sf.code_text(ci);
        let hit = match sf.code_kind(ci) {
            TokenKind::Ident if (t == "vec" || t == "format") && sf.code_is(ci + 1, "!") => {
                Some(format!("`{t}!` macro allocates"))
            }
            TokenKind::Ident
                if R2_ALLOC_TYPES.contains(&t)
                    && sf.code_is_pathsep(ci + 1)
                    && R2_ALLOC_CTORS.contains(&sf.code_text(ci + 3)) =>
            {
                Some(format!("`{}::{}` allocates", t, sf.code_text(ci + 3)))
            }
            TokenKind::Ident
                if R2_ALLOC_METHODS.contains(&t)
                    && ci > 0
                    && sf.code_is(ci - 1, ".")
                    && sf.code_is(ci + 1, "(") =>
            {
                Some(format!("`.{t}()` allocates"))
            }
            _ => None,
        };
        if let Some(what) = hit {
            out.push(finding(
                sf,
                "hot-path-alloc",
                sf.code_line(ci),
                format!("{what} inside a lint:hot-path region"),
            ));
        }
    }
}

/// R3: bare `as u8/u16/u32/u64` in decode-path files. Narrowing must go
/// through `try_from` + a typed error (`SerializeError::TooLarge` /
/// `IoError::Format`); deliberate widenings take a `lint:allow` with the
/// reason spelled out.
fn r3_checked_narrowing(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    if !R3_FILES.contains(&sf.rel_path.as_str()) {
        return;
    }
    for ci in 0..sf.code.len() {
        if sf.code_in_test(ci) || sf.code_text(ci) != "as" {
            continue;
        }
        let target = sf.code_text(ci + 1);
        if matches!(target, "u8" | "u16" | "u32" | "u64") {
            out.push(finding(
                sf,
                "checked-narrowing",
                sf.code_line(ci),
                format!("bare `as {target}` in a decode path — use try_from with a typed error"),
            ));
        }
    }
}

/// How many lines above an `unsafe` token a SAFETY comment may sit (allows
/// a `#[cfg…]` attribute or multi-line justification between them).
const R4_SAFETY_WINDOW: u32 = 5;

/// R4: every `unsafe` keyword (block, fn, impl) needs an adjacent
/// justification: a comment containing `SAFETY` (or an `unsafe fn`'s
/// `/// # Safety` doc section) ending within [`R4_SAFETY_WINDOW`] lines
/// above it. Applies to *all* file classes — tests and shims carry the same
/// proof obligations.
fn r4_safety_comment(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    for ci in 0..sf.code.len() {
        if sf.code_kind(ci) != TokenKind::Ident || sf.code_text(ci) != "unsafe" {
            continue;
        }
        let line = sf.code_line(ci);
        let ti = sf.code[ci];
        let min_line = line.saturating_sub(R4_SAFETY_WINDOW);
        let justified = sf.tokens[..ti]
            .iter()
            .rev()
            .take_while(|t| t.end_line >= min_line)
            .any(|t| {
                matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
                    && (t.text.contains("SAFETY") || t.text.contains("# Safety"))
            });
        if !justified {
            out.push(finding(
                sf,
                "safety-comment",
                line,
                "`unsafe` without an adjacent `// SAFETY:` justification".to_string(),
            ));
        }
    }
}

const R5_PRIMITIVES: [&str; 3] = ["Mutex", "RwLock", "Condvar"];

/// R5: raw `std::sync::{Mutex,RwLock,Condvar}` / `std::thread::spawn` outside
/// `shims/` and `crates/serve/`. Library code goes through the parking_lot /
/// rayon shims so a future swap to the real crates is one Cargo.toml line.
fn r5_std_sync(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    if sf.class != FileClass::Library || is_shim(sf) || sf.rel_path.starts_with("crates/serve/") {
        return;
    }
    for ci in 0..sf.code.len() {
        if sf.code_in_test(ci) || sf.code_kind(ci) != TokenKind::Ident {
            continue;
        }
        match sf.code_text(ci) {
            // `std::sync::X` or `std::sync::{..., X, ...}`
            "std" if sf.code_is_pathsep(ci + 1)
                && sf.code_text(ci + 3) == "sync"
                && sf.code_is_pathsep(ci + 4) =>
            {
                let after = ci + 6;
                if R5_PRIMITIVES.contains(&sf.code_text(after)) {
                    out.push(finding(
                        sf,
                        "std-sync",
                        sf.code_line(after),
                        format!(
                            "raw std::sync::{} outside shims/ and crates/serve — use the parking_lot shim",
                            sf.code_text(after)
                        ),
                    ));
                } else if sf.code_is(after, "{") {
                    let mut j = after + 1;
                    while j < sf.code.len() && !sf.code_is(j, "}") {
                        if R5_PRIMITIVES.contains(&sf.code_text(j)) {
                            out.push(finding(
                                sf,
                                "std-sync",
                                sf.code_line(j),
                                format!(
                                    "raw std::sync::{} outside shims/ and crates/serve — use the parking_lot shim",
                                    sf.code_text(j)
                                ),
                            ));
                        }
                        j += 1;
                    }
                }
            }
            // `thread::spawn` (covers the `std::thread::spawn` tail too).
            "thread" if sf.code_is_pathsep(ci + 1) && sf.code_text(ci + 3) == "spawn" => {
                out.push(finding(
                    sf,
                    "std-sync",
                    sf.code_line(ci),
                    "thread::spawn outside shims/ and crates/serve — use the rayon shim or serve's workers"
                        .to_string(),
                ));
            }
            _ => {}
        }
    }
}

/// Panicking macros R6 forbids.
const R6_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];

/// R6: `unwrap()` / `expect()` / `panic!`-family in library code. Shims are
/// exempt (a parking_lot shim must unwrap poison to mirror the real API);
/// `crates/bench` is exempt as an experiment harness.
fn r6_no_panic(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    if sf.class != FileClass::Library || is_shim(sf) || sf.rel_path.starts_with("crates/bench/") {
        return;
    }
    for ci in 0..sf.code.len() {
        if sf.code_in_test(ci) || sf.code_kind(ci) != TokenKind::Ident {
            continue;
        }
        let t = sf.code_text(ci);
        if (t == "unwrap" || t == "expect")
            && ci > 0
            && sf.code_is(ci - 1, ".")
            && sf.code_is(ci + 1, "(")
        {
            out.push(finding(
                sf,
                "no-panic",
                sf.code_line(ci),
                format!("`.{t}()` in library code — propagate a typed error instead"),
            ));
        } else if R6_MACROS.contains(&t) && sf.code_is(ci + 1, "!") {
            out.push(finding(
                sf,
                "no-panic",
                sf.code_line(ci),
                format!("`{t}!` in library code — propagate a typed error instead"),
            ));
        }
    }
}

/// The one module allowed to write `#[target_feature]` kernels: the SIMD
/// dispatch layer, where every such function is reachable only through the
/// runtime-detection table.
const R8_EXEMPT_FILES: [&str; 1] = ["crates/vectors/src/simd.rs"];

/// Identifiers that resolve or re-check the kernel table / CPU features.
/// Fine on setup paths; forbidden inside `lint:hot-path` regions, where the
/// table must already have been resolved (at `prepare_query` at the latest).
const R8_DETECT_IDENTS: [&str; 4] =
    ["kernels", "table_for", "is_x86_feature_detected", "is_aarch64_feature_detected"];

/// R8: SIMD dispatch discipline. Two arms:
///
/// 1. `#[target_feature]` outside the audited SIMD module — unsafe-to-call
///    kernels must only exist where the detection-table invariant (installed
///    after runtime feature checks) justifies them.
/// 2. Kernel-table resolution (`kernels()`, `table_for()`, the `std::arch`
///    feature-detection macros) inside a `lint:hot-path` region — selection
///    must happen outside the per-candidate loop.
fn r8_simd_dispatch(sf: &SourceFile<'_>, out: &mut Vec<Finding>) {
    let exempt = R8_EXEMPT_FILES.contains(&sf.rel_path.as_str()) || is_shim(sf);
    for ci in 0..sf.code.len() {
        if sf.code_kind(ci) != TokenKind::Ident {
            continue;
        }
        let t = sf.code_text(ci);
        if !exempt && t == "target_feature" {
            out.push(finding(
                sf,
                "simd-dispatch",
                sf.code_line(ci),
                "`#[target_feature]` outside crates/vectors/src/simd.rs — SIMD kernels live behind the detection table".to_string(),
            ));
        } else if R8_DETECT_IDENTS.contains(&t) && sf.code_in_hot(ci) {
            out.push(finding(
                sf,
                "simd-dispatch",
                sf.code_line(ci),
                format!(
                    "`{t}` inside a lint:hot-path region — resolve the kernel table per prepare_query, not per candidate"
                ),
            ));
        }
    }
}
