//! Fixture: `audit:allow` suppresses precisely one finding.
//! Scanned by `tests/fixtures.rs` as `sim` / Deterministic / Lib.

pub fn two_locks(xs: &[f64], a: &Mutex<f64>, b: &Mutex<f64>) {
    femux_par::par_map(xs, |_, x| {
        // audit:allow(sequential-fp-reduce, reason = "fixture: suppresses only the next line")
        *a.lock().expect("lock") += x;
        *b.lock().expect("lock") += x;
    });
}

pub fn trailing(xs: &[f64], c: &Mutex<f64>) {
    femux_par::par_map(xs, |_, x| *c.lock().expect("lock") += x); // audit:allow(sequential-fp-reduce, reason = "fixture: trailing form targets its own line")
}

// audit:allow(fault-draw-order, reason = "fixture: suppresses nothing, reported unused")
pub fn clean() {}
