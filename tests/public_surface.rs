//! Keeps the library crates' public surface honest.
//!
//! Every `pub fn`, `pub const fn` and `pub const` in the ten library
//! crates must be named, as a whole word, somewhere outside its own
//! crate's `src/`: another crate's sources, any `crates/*/tests/`, the
//! root `tests/`, `examples/` or `src/`, or `perfbench/src`. An item
//! only its own crate uses belongs at `pub(crate)`, where rustc's
//! `dead_code` lint (and so `clippy -D warnings`) sees it the moment its
//! last caller goes.
//!
//! This is a name grep, so it is a lower bound: a common name such as
//! `new` or `len` passes as soon as any other file says it, whether or
//! not that file calls this item. The exact check is compiler-driven:
//! narrow every method to `pub(crate)`, restore `pub` wherever a build
//! fails with E0624, then read the `dead_code` warnings of
//! `cargo check --workspace --lib`. This test catches the plain case
//! between runs of that probe.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The library crates whose surface is checked.
const CRATES: [&str; 10] = [
    "types",
    "dram",
    "pim",
    "gpu",
    "interconnect",
    "llm",
    "kv",
    "workload",
    "sched",
    "core",
];

/// Items allowed to stay `pub` with no caller outside their crate, as
/// `(crate, name, reason)`. Every entry must still be needed: an entry
/// whose item is gone or is now named outside its crate fails the test.
/// This file is left out of the search, so naming an item here does not
/// count as a caller.
const ALLOWED: &[(&str, &str, &str)] = &[];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every identifier-like word of `text`.
fn words(text: &str) -> HashSet<&str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect()
}

/// The name a line declares as a public fn or const, if it does.
fn declared_pub_name(line: &str) -> Option<&str> {
    let rest = line.trim_start();
    let rest = ["pub const fn ", "pub fn ", "pub const "]
        .iter()
        .find_map(|prefix| rest.strip_prefix(prefix))?;
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '$'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

#[test]
fn every_pub_item_is_named_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut search = Vec::new();
    for dir in ["tests", "examples", "src", "perfbench/src"] {
        rust_files(&root.join(dir), &mut search);
    }
    for entry in fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let dir = entry.expect("readable directory entry").path();
        rust_files(&dir.join("src"), &mut search);
        rust_files(&dir.join("tests"), &mut search);
    }
    // This file quotes the names it allows; it must not count as a caller.
    let this_file = root.join(file!());
    let texts: Vec<(PathBuf, String)> = search
        .into_iter()
        .filter(|path| *path != this_file)
        .map(|path| {
            let text = fs::read_to_string(&path).expect("readable source file");
            (path, text)
        })
        .collect();
    let file_words: Vec<HashSet<&str>> = texts.iter().map(|(_, text)| words(text)).collect();

    let mut checked = 0;
    let mut unused = Vec::new();
    let mut allowed_hits = HashSet::new();
    for krate in CRATES {
        let own_src = root.join("crates").join(krate).join("src");
        let outside: HashSet<&str> = texts
            .iter()
            .zip(&file_words)
            .filter(|((path, _), _)| !path.starts_with(&own_src))
            .flat_map(|(_, words)| words.iter().copied())
            .collect();
        for (path, text) in texts.iter().filter(|(path, _)| path.starts_with(&own_src)) {
            for (number, line) in text.lines().enumerate() {
                let Some(name) = declared_pub_name(line) else {
                    continue;
                };
                if name.starts_with('$') {
                    continue;
                }
                checked += 1;
                if outside.contains(name) {
                    continue;
                }
                if ALLOWED.iter().any(|&(k, n, _)| k == krate && n == name) {
                    allowed_hits.insert((krate, name));
                    continue;
                }
                let shown = path.strip_prefix(root).unwrap_or(path);
                unused.push(format!("{}:{} {name}", shown.display(), number + 1));
            }
        }
    }

    // A walk that finds nothing would pass vacuously.
    assert!(
        checked > 100,
        "only {checked} pub items found; paths moved?"
    );
    let stale: Vec<_> = ALLOWED
        .iter()
        .filter(|&&(k, n, _)| !allowed_hits.contains(&(k, n)))
        .map(|&(k, n, reason)| format!("{k}::{n} ({reason})"))
        .collect();
    assert!(
        stale.is_empty(),
        "allow-list entries no longer needed:\n{}",
        stale.join("\n")
    );
    assert!(
        unused.is_empty(),
        "pub items no code outside their crate names; narrow them to pub(crate):\n{}",
        unused.join("\n")
    );
}
