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

/// Every `.rs` file under `dirs` (relative to the repo root) with its text.
fn rust_files(dirs: &[&str]) -> Vec<(std::path::PathBuf, String)> {
    fn scan(dir: &std::path::Path, out: &mut Vec<(std::path::PathBuf, String)>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                scan(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                let text = std::fs::read_to_string(&path).expect("source file is UTF-8");
                out.push((path, text));
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in dirs {
        scan(&root.join(dir), &mut out);
    }
    out.sort();
    out
}

/// Every file under `dirs` (relative to the repo root) with its non-test
/// lines as `(path:line, text)`, comments dropped.
///
/// "Non-test" is what `scripts/loc.sh` counts: a file up to its first
/// `#[cfg(test)]`.
fn source_lines(dirs: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (path, text) in rust_files(dirs) {
        let code = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for (i, line) in code.enumerate() {
            if !line.trim_start().starts_with("//") {
                out.push((format!("{}:{}", path.display(), i + 1), line.to_string()));
            }
        }
    }
    out.sort();
    out
}

/// A store decorator that does not forward `forget_shuffle` inherits the
/// trait's no-op and silently keeps every block of every finished job.
/// Every `BlockStore` impl outside `benchmark/` (a frozen tree) defines it,
/// test doubles included.
#[test]
fn every_block_store_impl_defines_forget_shuffle() {
    let mut impls = Vec::new();
    for (path, text) in rust_files(&["crates", "src", "tests", "examples"]) {
        let lines: Vec<&str> = text.lines().collect();
        for (at, line) in lines.iter().enumerate() {
            let head = line.trim_start();
            if !(head.starts_with("impl") && head.contains(" BlockStore for ")) {
                continue;
            }
            // The impl's body: up to the line where its braces balance.
            let mut depth = 0i32;
            let mut body = String::new();
            for line in &lines[at..] {
                body.push_str(line);
                body.push('\n');
                depth += line.matches('{').count() as i32 - line.matches('}').count() as i32;
                if depth == 0 && body.contains('{') {
                    break;
                }
            }
            let at = format!("{}:{}", path.display(), at + 1);
            impls.push((at, body.contains("fn forget_shuffle(")));
        }
    }
    assert!(impls.len() >= 4, "the census found too few impls: {impls:?}");
    let missing: Vec<&String> = impls.iter().filter(|(_, ok)| !ok).map(|(at, _)| at).collect();
    assert!(missing.is_empty(), "`BlockStore` impls without `forget_shuffle`: {missing:?}");
}

/// The engine hears its block requests land by token — `put_to` /
/// `get_to`, answered through `StoreClient` — never through a boxed
/// callback, which would put an allocation back on every shuffle block.
/// Its non-test code, whitespace removed so a call split across lines is
/// still seen, names neither `store.put(` / `store.get(` nor a callback
/// type.
#[test]
fn engine_reaches_the_store_only_by_token() {
    let mut code = String::new();
    for (_, text) in rust_files(&["crates/engine/src"]) {
        let lines = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for line in lines.filter(|l| !l.trim_start().starts_with("//")) {
            code.extend(line.split_whitespace());
        }
    }
    for boxed in ["store.put(", "store.get(", "PutCallback", "GetCallback"] {
        assert!(!code.contains(boxed), "crates/engine/src calls the store with `{boxed}`");
    }
    for typed in ["store.put_to(", "store.get_to("] {
        assert!(code.contains(typed), "the scan found no `{typed}`: it no longer sees the calls");
    }
}

/// Library code schedules only typed events: outside `des` (which defines
/// both forms) no non-test line of `crates/*/src` calls `schedule_at`,
/// `schedule_in` or `schedule_now`. The boxed forms stay only as the
/// benchmark's seam.
#[test]
fn library_code_schedules_only_typed_events() {
    let mut code = String::new();
    for (path, text) in rust_files(&["crates"]) {
        let path = path.to_string_lossy();
        if !path.contains("/src/") || path.contains("crates/des/src") {
            continue;
        }
        let lines = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        for line in lines.filter(|l| !l.trim_start().starts_with("//")) {
            code.extend(line.split_whitespace());
        }
    }
    for boxed in ["schedule_at(", "schedule_in(", "schedule_now("] {
        assert!(!code.contains(boxed), "crates/*/src schedules a closure with `{boxed}`");
    }
    let seen = code.contains("notify_in(");
    assert!(seen, "the scan found no `notify_in(`: it no longer sees the calls");
}

/// The engine, the event core, the cloud model and the deployment layer
/// are where iteration order reaches a digest and where per-job hashing is
/// hot: std's `HashMap` / `HashSet` (SipHash, randomised order) stay out
/// of their non-test lines — `FastMap` / `FastSet` or plain vectors only.
#[test]
fn engine_and_des_sources_name_no_std_hash_collection() {
    let dirs = ["crates/engine/src", "crates/des/src", "crates/core/src", "crates/cloud/src"];
    let hits: Vec<String> = source_lines(&dirs)
        .into_iter()
        .filter(|(_, line)| line.contains("HashMap") || line.contains("HashSet"))
        .map(|(at, _)| at)
        .collect();
    assert!(hits.is_empty(), "std hash collections in {hits:?}");
}

/// An `Obs` belongs to one run and records on that run's simulation
/// thread, so the observability crate keeps no cross-thread storage: no
/// lock, atomic or `OnceLock` in the non-test lines of `crates/obs/src`.
#[test]
fn obs_holds_no_lock_or_atomic() {
    let hits: Vec<String> = source_lines(&["crates/obs/src"])
        .into_iter()
        .filter(|(_, line)| {
            ["Mutex", "RwLock", "Atomic", "OnceLock"]
                .iter()
                .any(|word| line.contains(word))
        })
        .map(|(at, line)| format!("{at}: {}", line.trim()))
        .collect();
    assert!(hits.is_empty(), "cross-thread storage in obs: {hits:#?}");
}

/// Process-global state is what keeps independent `Sim`s from running
/// side by side (ROADMAP item 1), so it can only go down: the `static`s
/// (a `thread_local!` declares one) in the crates' non-test lines are
/// these four —
/// the plan-node and shuffle id counters, the interner's tables and the
/// buffer pool's per-thread free list — none of which orders anything an
/// artifact shows.
#[test]
fn process_global_state_is_the_four_known_statics() {
    let mut names: Vec<String> = source_lines(&["crates"])
        .into_iter()
        .filter(|(at, _)| at.contains("/src/"))
        .filter_map(|(_, line)| {
            let decl = line.trim_start();
            let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
            let decl = decl.strip_prefix("pub ").unwrap_or(decl);
            let (name, _) = decl.strip_prefix("static ")?.split_once(':')?;
            Some(name.trim_start_matches("mut ").to_string())
        })
        .collect();
    names.sort();
    assert_eq!(names, ["NEXT_NODE", "NEXT_SHUFFLE", "POOL", "TABLES"]);
}

/// Panic sites in the crates' non-test lines: a file up to its first
/// `#[cfg(test)]`, doc examples included — what `scripts/loc.sh` counts.
/// The figure may only go down: a change that removes sites lowers
/// `CEILING` to the new count, and nothing raises it.
#[test]
fn panic_sites_only_go_down() {
    const CEILING: usize = 86;
    const SITES: [&str; 4] = [".unwrap()", ".expect(", "panic!", "unreachable!"];
    let mut per_file = Vec::new();
    for (path, text) in rust_files(&["crates"]) {
        if !path.to_string_lossy().contains("/src/") {
            continue;
        }
        let code = text.lines().take_while(|l| !l.contains("#[cfg(test)]"));
        let n: usize = code
            .map(|line| SITES.iter().map(|site| line.matches(site).count()).sum::<usize>())
            .sum();
        if n > 0 {
            per_file.push((n, path.display().to_string()));
        }
    }
    let total: usize = per_file.iter().map(|(n, _)| n).sum();
    per_file.sort();
    assert!(total <= CEILING, "{total} panic sites, ceiling {CEILING}: {per_file:#?}");
}
