//! ROADMAP item 1's prerequisite, proved rather than assumed: the
//! interner hands out symbols in first-come order, and `Interned` hashes
//! by symbol, so independent `Sim`s sharing a process see symbol numbers
//! that depend on who ran first. This binary holds one test so its decoys
//! really are the first names the process interns: the executor names a
//! fleet run uses, in reverse. The reduced fleet artifact built afterwards
//! must still meet the pin `hot_loop_pins.rs` checks — symbol numbering
//! never reaches an artifact.

mod common;

use splitserve_rt::hash::assert_pinned;
use splitserve_rt::Interned;

#[test]
fn symbol_numbering_never_reaches_the_fleet_artifact() {
    let decoys: Vec<Interned> = (0..128)
        .rev()
        .flat_map(|n| [format!("lambda-{n:04}"), format!("e-vm-{n:04}")])
        .map(|name| Interned::new(&name))
        .collect();
    assert_eq!(decoys[0].sym(), 0, "the decoys come first in this process");
    assert!(
        decoys[0].sym() < decoys[255].sym() && decoys[0] > decoys[255],
        "symbols run against name order"
    );
    let json = common::fleet_json();
    assert_pinned("reduced fleet artifact after decoys", json.as_bytes(), common::FLEET_PIN);
}
