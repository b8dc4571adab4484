//! Tier-1 determinism gate: a campaign must be a pure function of its seed
//! and config, so simulation code may not read a clock or OS entropy.
//!
//! Clippy enforces the full lint list (`[workspace.lints]` in the root
//! `Cargo.toml`, `disallowed-methods` in `clippy.toml`). This test keeps the
//! determinism core of it in `cargo test`, where clippy may not be installed:
//!
//! * the crate DAG: a simulation crate's normal dependencies are simulation
//!   crates or `rand` (seeded only), so no helper crate can hand it a clock;
//! * a token scan of those crates' library sources for clock reads and
//!   entropy-seeded RNGs, skipping comments and string literals.

use std::fs;
use std::path::{Path, PathBuf};

/// Tooling crates: they may read clocks. Every other crate is a simulation
/// crate, including one added later.
const TOOLING: &[&str] = &["starsense-bench", "criterion", "proptest", "rand"];

/// The tooling crate simulation crates may depend on: it has no entropy source.
const SIM_MAY_USE: &str = "rand";

/// Calls that read a clock or OS entropy.
const BANNED: &[&str] =
    &["Instant::now", "SystemTime::now", "thread_rng", "from_entropy", "rand::rng("];

/// A crate's package name and normal (non-dev) dependency names.
fn manifest(toml: &str) -> (String, Vec<String>) {
    let (mut name, mut deps, mut section) = (String::new(), Vec::new(), String::new());
    for line in toml.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_end_matches(']').to_string();
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.push(dep.to_string());
            }
            continue;
        }
        let key = line.split(['=', '.']).next().unwrap_or_default().trim();
        if key.is_empty() || key.starts_with('#') {
            continue;
        }
        let normal = section == "dependencies"
            || section == "build-dependencies"
            || (section.starts_with("target.") && section.ends_with(".dependencies"));
        if section == "package" && key == "name" {
            name = line.split('"').nth(1).unwrap_or_default().to_string();
        } else if normal {
            deps.push(key.to_string());
        }
    }
    (name, deps)
}

/// One line per normal dependency of a simulation crate on anything but a
/// simulation crate or `rand`.
fn dag_violations(crates: &[(String, Vec<String>)]) -> Vec<String> {
    let sim = |name: &str| !TOOLING.contains(&name) && crates.iter().any(|(n, _)| n == name);
    let mut out = Vec::new();
    for (name, deps) in crates.iter().filter(|(n, _)| sim(n)) {
        for dep in deps.iter().filter(|d| !sim(d) && *d != SIM_MAY_USE) {
            out.push(format!("simulation crate `{name}` depends on `{dep}`"));
        }
    }
    out
}

/// Whether `rest`, the text after a `'`, starts a char literal rather than
/// a lifetime: an escape, or one (UTF-8) character and a closing `'`.
fn char_literal(rest: &[u8]) -> bool {
    let len = match rest.first() {
        Some(b'\\') => return true,
        Some(0xF0..) => 4,
        Some(0xE0..) => 3,
        Some(0xC0..) => 2,
        _ => 1,
    };
    rest.get(len) == Some(&b'\'')
}

/// `src` with comments and string/char literals blanked out, so the scan
/// sees only code. Newlines are kept.
fn code_only(src: &str) -> String {
    let mut out = src.as_bytes().to_vec();
    let mut i = 0;
    while i < out.len() {
        let Some(end) = literal_end(src.as_bytes(), i) else {
            i += 1;
            continue;
        };
        let end = end.min(out.len());
        out[i..end].iter_mut().filter(|c| **c != b'\n').for_each(|c| *c = b' ');
        i = end;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The end of the comment or string/char literal starting at `b[i]`, if any.
fn literal_end(b: &[u8], i: usize) -> Option<usize> {
    let ident = |j: usize| j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_');
    let rest = &b[i..];
    if rest.starts_with(b"//") {
        return Some(i + rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len()));
    }
    if rest.starts_with(b"/*") {
        // Block comments nest.
        let (mut depth, mut j) = (0, i);
        loop {
            if b[j..].starts_with(b"/*") {
                (depth, j) = (depth + 1, j + 2);
            } else if b[j..].starts_with(b"*/") {
                (depth, j) = (depth - 1, j + 2);
            } else {
                j += 1;
            }
            if depth == 0 || j >= b.len() {
                return Some(j);
            }
        }
    }
    let raw_prefix = !ident(i.wrapping_sub(1)) || (b[i - 1] == b'b' && !ident(i.wrapping_sub(2)));
    if rest[0] == b'r' && raw_prefix {
        let hashes = rest[1..].iter().take_while(|&&c| c == b'#').count();
        if rest.get(1 + hashes) == Some(&b'"') {
            let close = [&b"\""[..], &rest[1..1 + hashes]].concat();
            let body = 2 + hashes;
            let len = rest[body..].windows(close.len()).position(|w| w == close)?;
            return Some(i + body + len + close.len());
        }
    }
    if rest[0] == b'"' || (rest[0] == b'\'' && char_literal(&rest[1..])) {
        let mut j = i + 1;
        while j < b.len() && b[j] != rest[0] {
            j += if b[j] == b'\\' { 2 } else { 1 };
        }
        return Some(j + 1);
    }
    None
}

/// The banned calls in `src`, one entry per occurrence.
fn banned_calls(src: &str) -> Vec<&'static str> {
    let code = code_only(src);
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut found = Vec::new();
    for &call in BANNED {
        for (at, _) in code.match_indices(call) {
            let before = code[..at].chars().next_back();
            let after = code[at + call.len()..].chars().next();
            if !ident(before) && (call.ends_with('(') || !ident(after)) {
                found.push(call);
            }
        }
    }
    found
}

/// Every `.rs` file under `dir`, skipping binary targets.
fn lib_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() && name != "bin" {
            out.extend(lib_sources(&path));
        } else if path.extension().is_some_and(|e| e == "rs") && name != "main.rs" {
            out.push(path);
        }
    }
    out
}

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.to_path_buf()];
    dirs.extend(fs::read_dir(root.join("crates")).expect("crates/").flatten().map(|e| e.path()));
    let crates: Vec<_> = dirs
        .iter()
        .filter_map(|d| fs::read_to_string(d.join("Cargo.toml")).ok().map(|t| (d, manifest(&t))))
        .collect();
    let graph: Vec<_> = crates.iter().map(|(_, m)| m.clone()).collect();
    let mut problems = dag_violations(&graph);
    assert!(graph.iter().any(|(n, _)| n == "starsense-scheduler"), "member manifests not found");
    for (dir, (name, _)) in &crates {
        if TOOLING.contains(&name.as_str()) && name != SIM_MAY_USE {
            continue;
        }
        for file in lib_sources(&dir.join("src")) {
            let src = fs::read_to_string(&file).expect("readable source");
            for call in banned_calls(&src) {
                problems.push(format!("{}: `{call}` in simulation code", file.display()));
            }
        }
    }
    assert!(problems.is_empty(), "determinism gate:\n{}", problems.join("\n"));
}

#[test]
fn scanner_flags_each_banned_call() {
    let sources = [
        "fn f() { let t = std::time::Instant::now(); }",
        "fn f() { let t = SystemTime::now(); }",
        "fn f() { let r = rand::thread_rng(); }",
        "fn f() { let r = StdRng::from_entropy(); }",
        "fn f() { let r = rand::rng(); }",
    ];
    for (&call, src) in BANNED.iter().zip(sources) {
        assert_eq!(banned_calls(src), [call], "{src}");
    }
}

#[test]
fn scanner_ignores_the_seeded_rng_import() {
    assert!(banned_calls("use rand::rngs::StdRng;\nuse rand::SeedableRng;").is_empty());
}

#[test]
fn scanner_ignores_comments_and_strings() {
    let src = r##"
        // Instant::now() is banned
        /* thread_rng() /* nested */ SystemTime::now() */
        /// Never call `rand::rng()`.
        const A: &str = "from_entropy \" Instant::now";
        const B: &str = r#"SystemTime::now "quoted""#;
        const C: char = '"';
        fn f<'a>(x: &'a str) -> &'a str { x }
    "##;
    assert_eq!(banned_calls(src), Vec::<&str>::new());
    assert_eq!(banned_calls(&format!("{src}\nfn g() {{ Instant::now(); }}")), ["Instant::now"]);
}

#[test]
fn dag_rejects_a_simulation_crate_depending_on_criterion() {
    let sim = "[package]\nname = \"starsense-sim\"\n\n[dependencies]\nrand.workspace = true\n\
               criterion = { path = \"../criterion\" }\n\n[dev-dependencies]\nproptest.workspace = true\n";
    let crates = [
        manifest(sim),
        manifest("[package]\nname = \"criterion\"\n"),
        manifest("[package]\nname = \"rand\"\n"),
    ];
    assert_eq!(crates[0].1, ["rand", "criterion"]);
    assert_eq!(
        dag_violations(&crates),
        ["simulation crate `starsense-sim` depends on `criterion`"]
    );
    assert!(dag_violations(&[manifest(&sim.replace("criterion =", "# criterion ="))]).is_empty());
}
