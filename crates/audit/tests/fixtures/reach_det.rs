//! Fixture: lint-clean deterministic code laundering the wall clock
//! through a runtime-crate helper. Clippy's clock bans see nothing
//! here — only the call graph does.

pub fn tick_stamp() -> u64 {
    femux_knative::now_ms()
}

pub fn allowed_stamp() -> u64 {
    // audit:allow(wallclock-reachability, reason = "fixture: sanctioned crossing")
    femux_knative::now_ms()
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_in_tests_is_exempt() {
        let _ = femux_knative::now_ms();
    }
}
