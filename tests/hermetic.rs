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
