//! Wall-clock timing for the bench binaries that still record walls
//! (`scale`, `mobility`, `replicate`). End-to-end and per-layer timing of
//! the simulator and checker lives in `perfbench/`.

use std::time::Instant;

/// Time a single invocation of `f`, returning `(result, seconds)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_passes_result_through() {
        let (v, secs) = time_once(|| 42u32);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
