//! Shared helpers for the repo's own test suites.

/// Returns `true` when the expensive scale tier is opted in via
/// `SEAL_SCALE=1`. Gated tests call this at the top and return early when
/// it is off, so the suite stays green (and fast) by default —
/// `scripts/ci.sh` flips it on for the 10x test, and for the whole suite
/// when its own environment sets it.
/// Runtime gating (instead of `#[ignore]`) keeps the tests visible to
/// `cargo test` and to the no-ignored-tests lint in `scripts/ci.sh`.
pub fn scale_enabled() -> bool {
    std::env::var("SEAL_SCALE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Standard preamble for a `SEAL_SCALE`-gated test: returns `false` (and
/// prints why) when the tier is off.
pub fn scale_gate(test: &str) -> bool {
    if scale_enabled() {
        true
    } else {
        eprintln!("skipping {test}: set SEAL_SCALE=1 to run the scale tier");
        false
    }
}
