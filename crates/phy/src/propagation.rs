//! Near-field signal propagation.
//!
//! The paper's 5 MHz "near-field" radios have signal strength decaying
//! "very rapidly (≈ r^-γ, as opposed to ≈ r^-2 in the far-field region)",
//! producing nanocells with very sharply defined boundaries. We model
//! received power as `P(r) = (r₀ / r)^γ` with reference distance r₀ = 1 ft
//! and transmit power normalized to 1 (all stations transmit at the same
//! strength, per §2.1).
//!
//! Two thresholds matter:
//!
//! * **Reception threshold** — "the signal strength at 10 feet". A signal
//!   weaker than this cannot be received at all; it defines in-range.
//! * **Capture margin** — a signal is received cleanly only if it exceeds the
//!   sum of all other signals by ≥ 10 dB (a factor of 10 in power).
//!
//! [`CutoffMode`] selects what happens to signals from *beyond* the
//! reception range. `Hard` (the default used by all paper experiments) makes
//! them contribute nothing, matching the paper's stated simplification that
//! interference from out-of-range stations is "rather rare in our
//! environment, and we do not make it a major factor in our design".
//! `Physical` keeps the raw `r^-γ` tail so the `ablations` bench's
//! `gamma_sensitivity` can quantify how much that simplification matters.

/// Distance (ft) at which the reception threshold is defined: the paper
/// uses the signal strength at 10 ft.
pub const THRESHOLD_DISTANCE_FT: f64 = 10.0;

/// The largest decay exponent γ a scenario accepts. The reception
/// threshold `(1 / THRESHOLD_DISTANCE_FT)^γ` is a normal f64 up to
/// γ ≈ 307.65; above that it rounds toward 0, and sub-threshold gains start
/// to pass the threshold test.
pub const MAX_GAMMA: f64 = 307.0;

/// Required power ratio of signal over summed interference, in dB: the
/// paper uses 10 dB.
pub const CAPTURE_MARGIN_DB: f64 = 10.0;

/// [`CAPTURE_MARGIN_DB`] as a power ratio, `10^(CAPTURE_MARGIN_DB / 10)`
/// (a unit test pins the bits).
const CAPTURE_FACTOR: f64 = 10.0;

/// How signals beyond the reception range contribute to interference.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CutoffMode {
    /// Signals below the reception threshold contribute zero interference
    /// (the paper's idealization; default).
    #[default]
    Hard,
    /// Signals contribute their physical `r^-γ` power everywhere.
    Physical,
}

/// Propagation model parameters.
#[derive(Clone, Copy, Debug)]
pub struct PropagationConfig {
    /// Near-field decay exponent γ. The paper gives no number directly,
    /// but states that capture (a 10 dB power ratio) "requires a distance
    /// ratio of ≈ 1.5", which implies γ = 10 / (10·log₁₀(1.5)) ≈ 5.7;
    /// 6.0 reproduces both the sharply-bounded nanocells and that capture
    /// ratio (10^(1/6) ≈ 1.47).
    pub gamma: f64,
    /// Out-of-range interference handling.
    pub cutoff: CutoffMode,
}

impl Default for PropagationConfig {
    fn default() -> Self {
        PropagationConfig {
            gamma: 6.0,
            cutoff: CutoffMode::Hard,
        }
    }
}

/// A concrete propagation model derived from a [`PropagationConfig`].
#[derive(Clone, Copy, Debug)]
pub struct Propagation {
    config: PropagationConfig,
    threshold_power: f64,
}

impl Propagation {
    /// Build a model from `config`.
    ///
    /// # Panics
    /// Panics on a non-physical γ ≤ 0.
    pub fn new(config: PropagationConfig) -> Self {
        assert!(config.gamma > 0.0, "gamma must be positive");
        let threshold_power = (1.0 / THRESHOLD_DISTANCE_FT).powf(config.gamma);
        Propagation {
            config,
            threshold_power,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &PropagationConfig {
        &self.config
    }

    /// Received power (normalized; transmit power = 1 at 1 ft) at distance
    /// `r` feet. Distances under half a cube (0.5 ft) are clamped: two
    /// stations cannot be closer than adjacent cube centers in practice, and
    /// the clamp keeps colocated test stations finite.
    pub fn power_at_distance(&self, r: f64) -> f64 {
        let r = r.max(0.5);
        (1.0 / r).powf(self.config.gamma)
    }

    /// Power contributed to *interference* computations at distance `r`,
    /// honoring the cutoff mode.
    pub fn interference_power(&self, r: f64) -> f64 {
        self.apply_cutoff(self.power_at_distance(r))
    }

    /// The interference share of received power `p`: `p` itself, or `0.0`
    /// below the reception threshold under [`CutoffMode::Hard`]. Since
    /// `interference_power(r)` is `apply_cutoff(power_at_distance(r))`, a
    /// caller holding a path gain derives the interference gain without a
    /// second `powf`.
    pub(crate) fn apply_cutoff(&self, p: f64) -> f64 {
        match self.config.cutoff {
            CutoffMode::Hard if p < self.threshold_power => 0.0,
            _ => p,
        }
    }

    /// The reception threshold (signal strength at the threshold distance).
    pub fn threshold_power(&self) -> f64 {
        self.threshold_power
    }

    /// `true` iff a signal at distance `r` is receivable at all.
    pub fn in_range(&self, r: f64) -> bool {
        self.power_at_distance(r) >= self.threshold_power
    }

    /// `true` iff `signal` power is cleanly receivable over `interference`
    /// (summed power of all other overlapping signals plus ambient noise):
    /// above threshold and at least the capture margin over the interference.
    pub fn clean(&self, signal: f64, interference: f64) -> bool {
        signal >= self.threshold_power && signal >= CAPTURE_FACTOR * interference
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Propagation {
        Propagation::new(PropagationConfig::default())
    }

    #[test]
    fn range_boundary_is_sharp_at_threshold_distance() {
        let m = model();
        assert!(m.in_range(9.99));
        assert!(m.in_range(10.0));
        assert!(!m.in_range(10.01));
    }

    #[test]
    fn power_decays_monotonically() {
        let m = model();
        let mut last = f64::INFINITY;
        for r in 1..40 {
            let p = m.power_at_distance(r as f64);
            assert!(p < last, "power must strictly decrease with distance");
            last = p;
        }
    }

    #[test]
    fn near_field_decay_is_faster_than_far_field() {
        // Doubling distance must cost more than the far-field 6 dB.
        let m = model();
        let ratio = m.power_at_distance(2.0) / m.power_at_distance(4.0);
        let far_field_ratio = 4.0; // r^-2 doubling = 6 dB = 4x
        assert!(ratio > far_field_ratio);
    }

    #[test]
    fn capture_factor_is_the_margin_as_a_power_ratio() {
        assert_eq!(
            CAPTURE_FACTOR.to_bits(),
            10f64.powf(CAPTURE_MARGIN_DB / 10.0).to_bits()
        );
    }

    #[test]
    fn capture_requires_ten_db() {
        let m = model();
        let s = m.power_at_distance(5.0);
        assert!(m.clean(s, s / 10.0)); // exactly 10 dB above: clean
        assert!(!m.clean(s, s / 9.0)); // slightly less: collision
        assert!(m.clean(s, 0.0)); // no interference
    }

    #[test]
    fn below_threshold_is_never_clean() {
        let m = model();
        let weak = m.power_at_distance(11.0);
        assert!(!m.clean(weak, 0.0));
    }

    #[test]
    fn capture_distance_ratio_matches_paper() {
        // §2.1: capture "requires a distance ratio of ≈ 1.5" for a 10 dB
        // power ratio. With γ = 6 the required ratio is 10^(1/6) ≈ 1.47.
        let m = model();
        let required = 10f64.powf(1.0 / m.config().gamma);
        assert!(required > 1.4 && required < 1.55, "ratio = {required}");
        let near = m.power_at_distance(4.0);
        let far = m.power_at_distance(4.0 * required * 1.01);
        assert!(m.clean(near, far));
        assert!(!m.clean(near, m.power_at_distance(4.0 * required * 0.99)));
    }

    #[test]
    fn hard_cutoff_zeroes_out_of_range_interference() {
        let m = model();
        assert_eq!(m.interference_power(10.5), 0.0);
        assert!(m.interference_power(9.5) > 0.0);
    }

    #[test]
    fn physical_cutoff_keeps_the_tail() {
        let m = Propagation::new(PropagationConfig {
            cutoff: CutoffMode::Physical,
            ..PropagationConfig::default()
        });
        assert!(m.interference_power(10.5) > 0.0);
    }

    #[test]
    fn clamp_keeps_colocated_stations_finite() {
        let m = model();
        assert!(m.power_at_distance(0.0).is_finite());
        assert_eq!(m.power_at_distance(0.0), m.power_at_distance(0.5));
    }
}
