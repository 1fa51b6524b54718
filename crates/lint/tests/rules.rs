//! Per-rule coverage: for each of R1–R6 and R8 one violating snippet and one
//! allowed/suppressed snippet, plus the directive edge cases (bad allows,
//! trailing vs standalone targeting).

use nsg_lint::{lint_source, FileClass};

/// Lints `src` as library code at `path`, returning the rule names found.
fn rules_at(path: &str, src: &str) -> Vec<&'static str> {
    let (findings, _) = lint_source(path, src, nsg_lint::classify(path));
    findings.iter().map(|f| f.rule).collect()
}

const LIB: &str = "crates/core/src/example.rs";

#[test]
fn r1_flags_params_construction_outside_core() {
    let src = "fn f() { let p = SearchParams::new(10, 5); }";
    assert_eq!(rules_at("crates/baselines/src/x.rs", src), ["params-construction"]);
    let src = "fn f() { let p = SearchParams { pool_size: 3 }; }";
    assert_eq!(rules_at("crates/eval/src/x.rs", src), ["params-construction"]);
}

#[test]
fn r1_allows_audited_modules_suppressions_and_tests() {
    let src = "fn f() { let p = SearchParams::new(10, 5); }";
    // The definition/request modules are the audited construction sites.
    assert_eq!(rules_at("crates/core/src/search.rs", src), [] as [&str; 0]);
    // A reasoned allow suppresses.
    let src = "fn f() { let p = SearchParams::new(10, 5); } // lint:allow(params-construction): build-time params";
    assert_eq!(rules_at("crates/baselines/src/x.rs", src), [] as [&str; 0]);
    // Test code is out of scope: mention of the type in a test body is fine.
    let src = "#[cfg(test)]\nmod tests {\n fn f() { let p = SearchParams::new(1, 1); }\n}";
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
    // Plain *use* (no construction) is fine anywhere.
    assert_eq!(rules_at(LIB, "fn f(p: SearchParams) -> usize { p.pool_size }"), [] as [&str; 0]);
}

#[test]
fn r2_flags_allocation_only_inside_hot_regions() {
    let hot = "// lint:hot-path\nfn f() {\n let v: Vec<u32> = Vec::new();\n}";
    assert_eq!(rules_at(LIB, hot), ["hot-path-alloc"]);
    let hot = "// lint:hot-path\nfn f(xs: &[u32]) -> Vec<u32> {\n xs.iter().copied().collect()\n}";
    assert_eq!(rules_at(LIB, hot), ["hot-path-alloc"]);
    let hot = "// lint:hot-path\nfn f() {\n let v = vec![1, 2];\n}";
    assert_eq!(rules_at(LIB, hot), ["hot-path-alloc"]);
    // The same calls outside a hot region are not R2's business.
    let cold = "fn f() { let v: Vec<u32> = Vec::new(); }";
    assert_eq!(rules_at(LIB, cold), [] as [&str; 0]);
    // Non-allocating mutation inside a hot region is fine.
    let hot = "// lint:hot-path\nfn f(v: &mut Vec<u32>) {\n v.push(1);\n v.clear();\n}";
    assert_eq!(rules_at(LIB, hot), [] as [&str; 0]);
}

#[test]
fn r3_flags_bare_narrowing_in_decode_files_only() {
    let src = "fn f(x: i32) -> u32 { x as u32 }";
    assert_eq!(rules_at("crates/vectors/src/io.rs", src), ["checked-narrowing"]);
    assert_eq!(rules_at("crates/core/src/snapshot.rs", src), ["checked-narrowing"]);
    // Same cast elsewhere is allowed (R3 audits decode paths, not the world).
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
    // Widening to usize is not narrowing.
    let src = "fn f(x: u32) -> usize { x as usize }";
    assert_eq!(rules_at("crates/vectors/src/io.rs", src), [] as [&str; 0]);
    // A reasoned allow suppresses.
    let src = "fn f(x: i32) -> u32 { x as u32 } // lint:allow(checked-narrowing): proven non-negative above";
    assert_eq!(rules_at("crates/vectors/src/io.rs", src), [] as [&str; 0]);
}

#[test]
fn r4_requires_safety_comment_on_unsafe() {
    let src = "fn f() { unsafe { g(); } }";
    assert_eq!(rules_at(LIB, src), ["safety-comment"]);
    let src = "fn f() {\n // SAFETY: g has no preconditions on this target.\n unsafe { g(); }\n}";
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
    // A `/// # Safety` doc section on an unsafe fn also counts.
    let src = "/// Does things.\n///\n/// # Safety\n/// Caller must ensure i < len.\npub unsafe fn g(i: usize) {}";
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
    // A cfg attribute between the comment and the keyword stays in-window.
    let src = "fn f() {\n // SAFETY: prefetch never faults.\n #[cfg(target_arch = \"x86_64\")]\n unsafe { g(); }\n}";
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
    // R4 applies to tests too: proof obligations don't vanish under cfg(test).
    let src = "#[cfg(test)]\nmod tests {\n fn f() { unsafe { g(); } }\n}";
    assert_eq!(rules_at(LIB, src), ["safety-comment"]);
}

#[test]
fn r5_flags_raw_sync_primitives_outside_serve_and_shims() {
    assert_eq!(rules_at(LIB, "use std::sync::Mutex;\n"), ["std-sync"]);
    // Inside a brace group, only the named primitives fire.
    assert_eq!(rules_at(LIB, "use std::sync::{Arc, RwLock};\n"), ["std-sync"]);
    assert_eq!(rules_at(LIB, "fn f() { std::thread::spawn(|| {}); }"), ["std-sync"]);
    // Arc / atomics are fine — only the lock primitives are shimmed.
    assert_eq!(rules_at(LIB, "use std::sync::Arc;\nuse std::sync::atomic::AtomicU64;\n"), [] as [&str; 0]);
    // serve and the shims are the sanctioned homes of raw primitives.
    assert_eq!(rules_at("crates/serve/src/slot.rs", "use std::sync::{Condvar, Mutex};\n"), [] as [&str; 0]);
    assert_eq!(rules_at("shims/parking_lot/src/lib.rs", "use std::sync::Mutex;\n"), [] as [&str; 0]);
}

#[test]
fn r6_flags_panicking_calls_in_library_code_only() {
    assert_eq!(rules_at(LIB, "fn f(x: Option<u32>) -> u32 { x.unwrap() }"), ["no-panic"]);
    assert_eq!(rules_at(LIB, "fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }"), ["no-panic"]);
    assert_eq!(rules_at(LIB, "fn f() { panic!(\"boom\"); }"), ["no-panic"]);
    assert_eq!(rules_at(LIB, "fn f() { todo!() }"), ["no-panic"]);
    // Non-panicking relatives are distinct identifiers and never fire.
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\nfn g(r: LockResult<T>) -> T { r.unwrap_or_else(|e| e.into_inner()) }";
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
    // Tests, benches, bins and the bench harness may panic freely.
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    assert_eq!(rules_at("tests/x.rs", src), [] as [&str; 0]);
    assert_eq!(rules_at("crates/bench/src/lib.rs", src), [] as [&str; 0]);
    assert_eq!(rules_at("crates/eval/src/bin/tool.rs", src), [] as [&str; 0]);
    // `panic!` inside a string or comment is text, not a call.
    let src = "fn f() -> &'static str { \"do not panic!(here)\" } // panic! is fine to discuss";
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
}

#[test]
fn r8_flags_target_feature_outside_the_simd_module() {
    let src = "/// # Safety\n/// AVX2 required.\n#[target_feature(enable = \"avx2\")]\nunsafe fn fast(a: &[f32]) -> f32 { 0.0 }";
    assert_eq!(rules_at(LIB, src), ["simd-dispatch"]);
    // The audited SIMD module is the one sanctioned home (its own `unsafe`
    // hygiene is R4's business, so feed it a justified snippet).
    let src = "/// # Safety\n/// AVX2 detected by the table.\n#[target_feature(enable = \"avx2\")]\npub unsafe fn fast(a: &[f32]) -> f32 { 0.0 }";
    assert_eq!(rules_at("crates/vectors/src/simd.rs", src), [] as [&str; 0]);
    // Rule applies to tests and bins too: a kernel compiled for a feature the
    // CPU may lack is unsound wherever it lives.
    let src = "/// # Safety\n/// AVX2 required.\n#[target_feature(enable = \"avx2\")]\nunsafe fn fast() {}\nfn main() {}";
    assert_eq!(rules_at("crates/eval/src/bin/tool.rs", src), ["simd-dispatch"]);
}

#[test]
fn r8_flags_kernel_table_resolution_in_hot_regions() {
    let hot = "// lint:hot-path\nfn score(a: &[f32], b: &[f32]) -> f32 {\n (crate::simd::kernels().squared_l2)(a, b)\n}";
    assert_eq!(rules_at(LIB, hot), ["simd-dispatch"]);
    let hot = "// lint:hot-path\nfn pick() {\n if std::arch::is_x86_feature_detected!(\"avx2\") {}\n}";
    assert_eq!(rules_at(LIB, hot), ["simd-dispatch"]);
    // The same resolution outside a hot region is the intended setup path.
    let cold = "fn resolve(s: &mut Scratch) { s.table = crate::simd::kernels(); }";
    assert_eq!(rules_at(LIB, cold), [] as [&str; 0]);
    // Reading the already-cached table in a hot region is the whole point.
    let hot = "// lint:hot-path\nfn score(s: &Scratch, a: &[f32], b: &[f32]) -> f32 {\n (s.table().squared_l2)(a, b)\n}";
    assert_eq!(rules_at(LIB, hot), [] as [&str; 0]);
    // A reasoned allow suppresses.
    let src = "// lint:hot-path\nfn score(a: &[f32], b: &[f32]) -> f32 {\n // lint:allow(simd-dispatch): one-shot path, no per-candidate loop\n (crate::simd::kernels().squared_l2)(a, b)\n}";
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
}

#[test]
fn bad_allows_are_findings_and_unsuppressible() {
    // Bare allow: no reason.
    let (findings, _) = lint_source(LIB, "fn f() { x.unwrap() } // lint:allow(no-panic)", FileClass::Library);
    let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"bad-allow"), "bare allow must be flagged: {rules:?}");
    assert!(rules.contains(&"no-panic"), "a bad allow must not suppress: {rules:?}");
    // Empty reason.
    assert!(rules_at(LIB, "fn f() {} // lint:allow(no-panic):   ").contains(&"bad-allow"));
    // Unknown rule name.
    assert!(rules_at(LIB, "fn f() {} // lint:allow(no-such-rule): because").contains(&"bad-allow"));
    // Doc comments *mentioning* the directive are prose, not directives.
    assert_eq!(rules_at(LIB, "/// Suppress with `// lint:allow(no-panic): reason`.\nfn f() {}"), [] as [&str; 0]);
}

#[test]
fn allow_targets_trailing_line_or_next_code_line() {
    // Standalone comment suppresses the next code line...
    let src = "fn f(x: Option<u32>) -> u32 {\n // lint:allow(no-panic): checked by caller\n x.unwrap()\n}";
    assert_eq!(rules_at(LIB, src), [] as [&str; 0]);
    // ...but not a line further down.
    let src = "fn f(x: Option<u32>) -> u32 {\n // lint:allow(no-panic): checked by caller\n let y = x;\n y.unwrap()\n}";
    assert_eq!(rules_at(LIB, src), ["no-panic"]);
    // An allow for rule A does not suppress rule B on the same line.
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(checked-narrowing): wrong rule";
    assert_eq!(rules_at(LIB, src), ["no-panic"]);
}

#[test]
fn allows_are_reported_for_auditing() {
    let src = "fn f() { let p = SearchParams::new(1, 1); } // lint:allow(params-construction): build-time";
    let (findings, allows) = lint_source("crates/baselines/src/x.rs", src, FileClass::Library);
    assert!(findings.is_empty());
    assert_eq!(allows.len(), 1);
    assert_eq!(allows[0].rules, ["params-construction"]);
    assert_eq!(allows[0].reason, "build-time");
    assert_eq!(allows[0].comment_line, 1);
}

#[test]
fn lex_failure_is_a_finding_not_a_skip() {
    let (findings, _) = lint_source(LIB, "fn f() { \"unterminated }", FileClass::Library);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, "parse");
}
