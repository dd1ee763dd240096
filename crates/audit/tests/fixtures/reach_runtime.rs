//! Fixture: the runtime helper that actually reads the wall clock.
//! A runtime crate expects clippy's clock bans where measuring time is
//! its job, which is exactly the laundering hole the reachability rule
//! closes.

use std::time::Instant;

pub fn now_ms() -> u64 {
    let t = Instant::now();
    u64::from(t.elapsed().subsec_millis())
}
