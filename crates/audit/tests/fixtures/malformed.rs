//! Fixture: malformed annotations never silently suppress.
//! Scanned by `tests/fixtures.rs` as `core` / Deterministic / Lib.

pub fn unjustified(xs: &[f64], total: &Mutex<f64>) {
    femux_par::par_map(xs, |_, x| {
        // audit:allow(sequential-fp-reduce)
        *total.lock().expect("the annotation above has no reason") += x;
    });
}
