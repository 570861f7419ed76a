//! Global string interning: copyable `u32` handles for hot-loop names.
//!
//! The scheduler's steady-state path used to clone executor-name
//! `String`s on every dispatch, completion event, shuffle block id and
//! flight-recorder entry — at fleet scale (100 tenants × 10.5k jobs)
//! that churn dominated wall-clock. The fix is the classic one: a
//! process-wide, append-only interner maps each distinct name to a dense
//! `u32` symbol exactly once; everything downstream carries the symbol.
//!
//! [`Interned`] is the typed handle. It is `Copy`, compares and hashes
//! by symbol in O(1), and resolves back to `&'static str` (names are
//! leaked — bounded by the number of *distinct* names a process ever
//! sees, which for executor ids is a few hundred). `Ord` compares the
//! resolved names, **not** the symbols: scheduler tables sorted by
//! `Interned` must iterate in the same lexicographic order the old
//! `BTreeMap<String, _>` did, or dispatch order (and therefore every
//! virtual-time artifact) would shift with registration order.
//!
//! # Examples
//!
//! ```
//! use splitserve_rt::intern::Interned;
//!
//! let a = Interned::new("e-vm-0001");
//! let b = Interned::new("e-vm-0001");
//! assert_eq!(a, b);                       // same name, same symbol
//! assert_eq!(a.as_str(), "e-vm-0001");    // O(1)-ish resolution
//! assert!(a < Interned::new("lambda-0000")); // name order, not intern order
//! ```

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock, RwLock};

struct InternTables {
    /// name → symbol, guarding against double-interning.
    map: Mutex<HashMap<&'static str, u32>>,
    /// symbol → name, append-only.
    names: RwLock<Vec<&'static str>>,
}

fn tables() -> &'static InternTables {
    static TABLES: OnceLock<InternTables> = OnceLock::new();
    TABLES.get_or_init(|| InternTables {
        map: Mutex::new(HashMap::new()),
        names: RwLock::new(Vec::new()),
    })
}

/// Interns `name`, returning its dense symbol. Idempotent: the same
/// string always maps to the same symbol for the life of the process.
pub fn intern(name: &str) -> u32 {
    let t = tables();
    let mut map = t.map.lock().expect("interner poisoned");
    if let Some(&sym) = map.get(name) {
        return sym;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    let mut names = t.names.write().expect("interner poisoned");
    let sym = u32::try_from(names.len()).expect("interner overflow");
    names.push(leaked);
    map.insert(leaked, sym);
    sym
}

/// Resolves a symbol back to its name.
///
/// # Panics
///
/// Panics if `sym` was not produced by [`intern`] in this process.
pub fn resolve(sym: u32) -> &'static str {
    tables().names.read().expect("interner poisoned")[sym as usize]
}

/// A copyable handle to an interned string.
///
/// `Eq`/`Hash` are O(1) on the symbol; `Ord` compares the resolved
/// names so sorted containers keep string order (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interned(u32);

impl Interned {
    /// Interns `name` (or finds its existing symbol) and returns the handle.
    pub fn new(name: &str) -> Interned {
        Interned(intern(name))
    }

    /// The dense symbol backing this handle.
    #[inline]
    pub fn sym(self) -> u32 {
        self.0
    }

    /// The interned name. O(1) table lookup behind an uncontended read lock.
    #[inline]
    pub fn as_str(self) -> &'static str {
        resolve(self.0)
    }
}

impl PartialOrd for Interned {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Interned {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            std::cmp::Ordering::Equal
        } else {
            self.as_str().cmp(other.as_str())
        }
    }
}

impl std::fmt::Display for Interned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for Interned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Interned({:?})", self.as_str())
    }
}

impl From<&str> for Interned {
    fn from(s: &str) -> Interned {
        Interned::new(s)
    }
}

impl From<&String> for Interned {
    fn from(s: &String) -> Interned {
        Interned::new(s)
    }
}

impl From<String> for Interned {
    fn from(s: String) -> Interned {
        Interned::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_symbol() {
        let a = Interned::new("intern-test-alpha");
        let b = Interned::new("intern-test-alpha");
        let c = Interned::new("intern-test-beta");
        assert_eq!(a, b);
        assert_eq!(a.sym(), b.sym());
        assert_ne!(a, c);
    }

    #[test]
    fn resolves_roundtrip() {
        let a = Interned::new("intern-test-roundtrip");
        assert_eq!(a.as_str(), "intern-test-roundtrip");
        assert_eq!(Interned(a.sym()), a);
        assert_eq!(resolve(intern("intern-test-roundtrip")), "intern-test-roundtrip");
    }

    #[test]
    fn ord_is_name_order_not_intern_order() {
        // Intern in reverse lexicographic order; Ord must still sort by name.
        let z = Interned::new("intern-test-ord-z");
        let a = Interned::new("intern-test-ord-a");
        assert!(a < z, "Ord must compare names, not symbols");
        let mut v = [z, a];
        v.sort();
        assert_eq!(v[0].as_str(), "intern-test-ord-a");
    }

    #[test]
    fn display_and_debug_show_the_name() {
        let a = Interned::new("intern-test-display");
        assert_eq!(format!("{a}"), "intern-test-display");
        assert!(format!("{a:?}").contains("intern-test-display"));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Interned::new("intern-test-concurrent").sym()))
            .collect();
        let syms: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }
}
