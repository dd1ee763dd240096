//! Fixture: shared mutable state inside `par_map` argument lists.
//! Scanned by `tests/fixtures.rs` as `sim` / Deterministic / Lib.

static mut SUM: f64 = 0.0;

pub fn bad_locked_sum(xs: &[f64], total: &parking_lot::Mutex<f64>) {
    femux_par::par_map(xs, |_, x| {
        *total.lock() += x;
    });
}

pub fn bad_unsafe_sum(xs: &[f64]) {
    femux_par::par_map(xs, |_, x| unsafe {
        SUM += x;
    });
}

pub fn good_sequential_sum(xs: &[f64]) -> f64 {
    let parts = femux_par::par_map(xs, |_, x| x * 2.0);
    parts.iter().sum()
}

pub fn bad_rwlock_push(xs: &[f64], store: &std::sync::RwLock<Vec<usize>>) {
    femux_par::par_map(xs, |i, _| store.write().expect("lock").push(i));
}

pub fn bad_rwlock_guard(xs: &[f64], store: &std::sync::RwLock<Vec<usize>>) {
    femux_par::par_map(xs, |i, _| {
        let mut guard = store.write().expect("lock");
        guard.push(i);
    });
}
