//! Hermetic-build policy: every dependency is a path dependency. Cargo
//! records a `source = "…"` line in the lockfile for anything that comes
//! from a registry or a git remote, and none for path packages.

#[test]
fn lockfiles_name_no_registry_or_git_source() {
    let root = env!("CARGO_MANIFEST_DIR");
    for lock in ["Cargo.lock", "benchmark/Cargo.lock"] {
        let text = std::fs::read_to_string(format!("{root}/{lock}"))
            .unwrap_or_else(|e| panic!("{lock}: {e}"));
        assert!(text.contains("[[package]]"), "{lock} lists no packages");
        let foreign: Vec<&str> = text.lines().filter(|l| l.starts_with("source = ")).collect();
        assert!(foreign.is_empty(), "{lock} has non-path dependencies: {foreign:?}");
    }
}

/// The engine and the event core are where iteration order reaches a
/// digest and where per-job hashing is hot: std's `HashMap` / `HashSet`
/// (SipHash, randomised order) stay out of their non-test lines —
/// `FastMap` / `FastSet` or plain vectors only. "Non-test" is what
/// `scripts/loc.sh` counts: a file up to its first `#[cfg(test)]`.
#[test]
fn engine_and_des_sources_name_no_std_hash_collection() {
    fn scan(dir: &std::path::Path, hits: &mut Vec<String>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                scan(&path, hits);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("source file is UTF-8");
                let code = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
                for (i, line) in code.enumerate() {
                    let is_comment = line.trim_start().starts_with("//");
                    if !is_comment && (line.contains("HashMap") || line.contains("HashSet")) {
                        hits.push(format!("{}:{}", path.display(), i + 1));
                    }
                }
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    for dir in ["crates/engine/src", "crates/des/src"] {
        scan(&root.join(dir), &mut hits);
    }
    hits.sort();
    assert!(hits.is_empty(), "std hash collections in {hits:?}");
}
