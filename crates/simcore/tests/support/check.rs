//! The seeded property driver shared by the `prop_*` suites.
//!
//! A suite includes this file as a module:
//!
//! ```ignore
//! #[path = "../../simcore/tests/support/check.rs"]
//! mod check;
//! ```
//!
//! Case `c` of every property draws its inputs from
//! `SimRng::stream(SEED, c)`, so a case is named by its seed and number
//! alone: a failure prints both, and rerunning the property reproduces it
//! exactly.

use ioat_simcore::SimRng;

/// Seed of every property's case family.
pub const SEED: u64 = 0x10a7;

/// Runs `property` on cases `0..cases`; if one panics, prints the
/// property's name with the seed and case that failed.
pub fn check(name: &str, cases: u64, property: impl Fn(&mut SimRng)) {
    /// Reports the running case if it is dropped by a panic.
    struct Case<'a>(&'a str, u64);
    impl Drop for Case<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "property {} failed: seed {SEED:#x}, case {}",
                    self.0, self.1
                );
            }
        }
    }
    for case in 0..cases {
        let guard = Case(name, case);
        property(&mut SimRng::stream(SEED, case));
        drop(guard);
    }
}
