//! Wall-clock timing for the bench binaries that still record walls:
//! `replicate` prints its sweep walls, and `scale --timing` writes K-run
//! spreads to `BENCH_scale_timing.json`. End-to-end and per-layer timing
//! of the simulator and checker lives in `perfbench/`.

use std::time::Instant;

/// Time a single invocation of `f`, returning `(result, seconds)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Min, median and max of K timing samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`, in any order. The median of an even count
    /// is the mean of the middle two. Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let mid = s.len() / 2;
        let median = if s.len() % 2 == 1 {
            s[mid]
        } else {
            (s[mid - 1] + s[mid]) / 2.0
        };
        Spread {
            min: s[0],
            median,
            max: s[s.len() - 1],
        }
    }

    /// `{ "min": …, "median": …, "max": … }` with `decimals` places.
    pub fn to_json(&self, decimals: usize) -> String {
        format!(
            "{{ \"min\": {:.d$}, \"median\": {:.d$}, \"max\": {:.d$} }}",
            self.min,
            self.median,
            self.max,
            d = decimals
        )
    }
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

    #[test]
    fn spread_sorts_and_takes_the_median() {
        let odd = Spread::of(&[3.0, 1.0, 5.0, 2.0, 4.0]);
        assert_eq!((odd.min, odd.median, odd.max), (1.0, 3.0, 5.0));
        // An even count averages the middle two.
        let even = Spread::of(&[0.4, 0.1, 0.3, 0.2]);
        assert_eq!(
            (even.min, even.median, even.max),
            (0.1, (0.2 + 0.3) / 2.0, 0.4)
        );
        assert_eq!(Spread::of(&[7.0]).median, 7.0);
        assert_eq!(
            Spread::of(&[2.0, 1.0]).to_json(2),
            "{ \"min\": 1.00, \"median\": 1.50, \"max\": 2.00 }"
        );
    }
}
