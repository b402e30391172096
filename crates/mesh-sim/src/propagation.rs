//! Radio propagation: the paper's model.
//!
//! The paper's simulations use GloMoSim's two-ray ground-reflection path
//! loss with per-frame Rayleigh fading. This module provides exactly that,
//! with fading on or off, and the classic constants that yield a 250 m
//! nominal communication range and a 550 m carrier-sense range at 2 Mbps.

use crate::rng::SimRng;

/// Speed of light in m/s.
pub const SPEED_OF_LIGHT: f64 = 299_792_458.0;

/// Deterministic large-scale path-loss models. Two-ray ground is the only
/// one, since every deck, figure and benchmark workload runs it; the type
/// stays because the `bench_e2e` harness names the model it selects.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PathLossModel {
    /// Two-ray ground reflection: Friis below the crossover distance, `1/d^4`
    /// beyond. This is the model the paper names.
    #[default]
    TwoRayGround,
}

/// Stochastic small-scale fading applied per frame per link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FadingModel {
    /// No fading; reception is a pure function of distance.
    None,
    /// Rayleigh fading: received power is multiplied by a unit-mean
    /// exponential gain, drawn independently per frame. Appropriate for
    /// non-line-of-sight environments with many reflectors — the paper's
    /// stated choice.
    #[default]
    Rayleigh,
}

impl FadingModel {
    /// One link's fading draw for one frame: `y = 1 − u` for one uniform
    /// `u` in `[0, 1)` under Rayleigh fading (`y` is in `(0, 1]` and exact,
    /// since `u` is a multiple of 2⁻⁵³), or 1 without fading, which draws
    /// nothing. [`FadingModel::power_w`] turns it into a power.
    #[inline]
    pub(crate) fn draw(self, rng: &mut SimRng) -> f64 {
        match self {
            FadingModel::None => 1.0,
            FadingModel::Rayleigh => 1.0 - rng.uniform(),
        }
    }

    /// The received power of a link of mean power `mean_w` under the draw
    /// `y` of [`FadingModel::draw`]. Rayleigh fading multiplies the mean by
    /// a unit-mean exponential gain, `−ln y` by inverse CDF (finite, as
    /// `y > 0`). Every faded power of every medium path is computed here,
    /// so they agree to the bit.
    #[inline]
    pub(crate) fn power_w(self, mean_w: f64, y: f64) -> f64 {
        match self {
            FadingModel::None => mean_w,
            FadingModel::Rayleigh => mean_w * -y.ln(),
        }
    }

    /// True only if `power_w(mean_w, y) < floor_w` is certain, decided
    /// without a logarithm; false decides nothing. With `u = 1 − y` and
    /// `t = u / y`, `ln(1/y) = ln(1 + t) ≤ t(6 + t) / (6 + 4t)` for every
    /// `t ≥ 0`, that is `ln(1/y) ≤ u(6y + u) / (y(6y + 4u))`, so a draw is
    /// ruled out when the mean times that bound lies below
    /// `floor_w · (1 − 1e-9)` (compared cross-multiplied, as `y > 0`). The
    /// margin exceeds the roundings on both sides plus the ≤ 1-ULP error of
    /// `ln` by about five orders of magnitude for any positive normal
    /// `floor_w`. A NaN on either side compares false and rules nothing
    /// out.
    #[inline]
    pub(crate) fn surely_below(self, mean_w: f64, y: f64, floor_w: f64) -> bool {
        let cut_w = floor_w * (1.0 - 1e-9);
        match self {
            FadingModel::None => mean_w < cut_w,
            FadingModel::Rayleigh => {
                let u = 1.0 - y;
                mean_w * (u * (6.0 * y + u)) < cut_w * (y * (6.0 * y + 4.0 * u))
            }
        }
    }
}

/// Radio/PHY parameters shared by every node.
///
/// Defaults are the classic ns-2/GloMoSim 914 MHz WaveLAN constants: 281.8 mW
/// transmit power, receive threshold 3.652e-10 W (≈250 m under TwoRay) and
/// carrier-sense threshold 1.559e-11 W (≈550 m).
#[derive(Debug, Clone, PartialEq)]
pub struct PhyParams {
    /// Transmit power in watts.
    pub tx_power_w: f64,
    /// Transmit antenna gain (linear).
    pub tx_gain: f64,
    /// Receive antenna gain (linear).
    pub rx_gain: f64,
    /// Antenna height above ground in meters (both ends).
    pub antenna_height_m: f64,
    /// Carrier frequency in Hz.
    pub frequency_hz: f64,
    /// System loss factor `L >= 1` (linear).
    pub system_loss: f64,
    /// Minimum power for successful decode, in watts.
    pub rx_threshold_w: f64,
    /// Minimum power for the channel to be sensed busy, in watts.
    pub cs_threshold_w: f64,
    /// Capture ratio: a frame is decodable during interference if it is this
    /// factor (linear) stronger than the interferer.
    pub capture_ratio: f64,
    /// Large-scale path loss model (two-ray ground is the only one; the
    /// field stays because the `bench_e2e` harness sets it).
    pub path_loss: PathLossModel,
    /// Small-scale fading model.
    pub fading: FadingModel,
}

impl Default for PhyParams {
    fn default() -> Self {
        PhyParams {
            tx_power_w: 0.2818,
            tx_gain: 1.0,
            rx_gain: 1.0,
            antenna_height_m: 1.5,
            frequency_hz: 914e6,
            system_loss: 1.0,
            rx_threshold_w: 3.652e-10,
            cs_threshold_w: 1.559e-11,
            capture_ratio: 10.0,
            path_loss: PathLossModel::TwoRayGround,
            fading: FadingModel::Rayleigh,
        }
    }
}

impl PhyParams {
    /// Carrier wavelength in meters.
    pub fn wavelength_m(&self) -> f64 {
        SPEED_OF_LIGHT / self.frequency_hz
    }

    /// Crossover distance of the two-ray model: below it Friis applies,
    /// beyond it the `1/d^4` ground-reflection term dominates.
    pub fn crossover_distance_m(&self) -> f64 {
        4.0 * std::f64::consts::PI * self.antenna_height_m * self.antenna_height_m
            / self.wavelength_m()
    }

    /// Mean (unfaded) two-ray ground received power in watts at distance
    /// `d` meters: Friis up to the crossover distance, `1/d^4` beyond.
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative or NaN.
    pub fn mean_rx_power_w(&self, d: f64) -> f64 {
        assert!(d >= 0.0, "distance must be non-negative");
        // Clamp tiny distances: co-located antennas receive at the reference
        // distance of one wavelength rather than infinite power.
        let d = d.max(self.wavelength_m());
        if d <= self.crossover_distance_m() {
            let lambda = self.wavelength_m();
            self.tx_power_w * self.tx_gain * self.rx_gain * lambda * lambda
                / (16.0 * std::f64::consts::PI * std::f64::consts::PI * d * d * self.system_loss)
        } else {
            let h2 = self.antenna_height_m * self.antenna_height_m;
            self.tx_power_w * self.tx_gain * self.rx_gain * h2 * h2
                / (d * d * d * d * self.system_loss)
        }
    }

    /// Sample the actual received power in watts for one frame at distance
    /// `d`, applying fading.
    pub fn sample_rx_power_w(&self, d: f64, rng: &mut SimRng) -> f64 {
        self.sample_from_mean_w(self.mean_rx_power_w(d), rng)
    }

    /// Sample one frame's received power from a precomputed mean power
    /// (as returned by [`PhyParams::mean_rx_power_w`]), applying fading.
    /// Draws the exact same RNG sequence as
    /// [`PhyParams::sample_rx_power_w`], so media may cache mean powers per
    /// link without perturbing determinism.
    pub fn sample_from_mean_w(&self, mean_w: f64, rng: &mut SimRng) -> f64 {
        self.fading.power_w(mean_w, self.fading.draw(rng))
    }

    /// The deterministic (no-fading) communication range implied by the
    /// receive threshold, found by bisection.
    pub fn nominal_range_m(&self) -> f64 {
        self.range_for_mean_power(self.rx_threshold_w)
    }

    /// The deterministic carrier-sense range implied by the CS threshold.
    pub fn carrier_sense_range_m(&self) -> f64 {
        self.range_for_mean_power(self.cs_threshold_w)
    }

    /// The largest distance at which the *mean* received power still reaches
    /// `thresh` watts, found by bisection (two-ray mean power is monotone
    /// non-increasing in distance).
    /// Capped at 100 km. Spatial indexes use this to bound their search
    /// radius for a given power floor.
    pub fn range_for_mean_power(&self, thresh: f64) -> f64 {
        let (mut lo, mut hi) = (0.1, 1.0e5);
        if self.mean_rx_power_w(hi) >= thresh {
            return hi;
        }
        // Every step that does not return shrinks `[lo, hi]` between finite
        // ends, so the midpoint reaches an end within about 73 halvings;
        // once it has, no further halving would move it.
        loop {
            let mid = 0.5 * (lo + hi);
            if mid == lo || mid == hi {
                return mid;
            }
            if self.mean_rx_power_w(mid) >= thresh {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    /// Propagation delay over `d` meters.
    pub fn propagation_delay(&self, d: f64) -> crate::time::SimDuration {
        crate::time::SimDuration::from_secs_f64(d / SPEED_OF_LIGHT)
    }

    /// Build a [`MeanPowerEval`] for these parameters.
    pub fn mean_power_eval(&self) -> MeanPowerEval {
        MeanPowerEval::new(self)
    }
}

/// Precomputed evaluator for [`PhyParams::mean_rx_power_w`].
///
/// `mean_rx_power_w` recomputes the wavelength and the two-ray crossover
/// distance — a division each — on every call, which dominates its cost when
/// a spatial index filters tens of candidates per frame. This evaluator
/// hoists every distance-independent subexpression at construction while
/// performing the remaining per-call floating-point operations in *exactly*
/// the order `mean_rx_power_w` performs them, so for every non-negative
/// distance `eval(d)` returns the bit-identical `f64` (asserted by a unit
/// test). Cached evaluators must be rebuilt if the [`PhyParams`] they were
/// derived from change.
#[derive(Debug, Clone, Copy)]
pub struct MeanPowerEval {
    /// Wavelength, the clamp floor for tiny distances.
    lambda: f64,
    /// Friis numerator `((((tx·g_tx)·g_rx)·λ)·λ)`.
    num: f64,
    /// Far-field numerator `((((tx·g_tx)·g_rx)·h²)·h²)`.
    num4: f64,
    /// Crossover distance: Friis at or below, `1/d⁴` beyond.
    dc: f64,
    /// System loss factor.
    loss: f64,
}

/// `16π²`, folded with the same operation order `mean_rx_power_w` uses
/// (`16.0 * PI * PI`), so the constant is bit-identical.
const C16PI2: f64 = 16.0 * std::f64::consts::PI * std::f64::consts::PI;

impl MeanPowerEval {
    /// Precompute the evaluator for `phy`.
    pub fn new(phy: &PhyParams) -> Self {
        let lambda = phy.wavelength_m();
        let h2 = phy.antenna_height_m * phy.antenna_height_m;
        MeanPowerEval {
            lambda,
            num: phy.tx_power_w * phy.tx_gain * phy.rx_gain * lambda * lambda,
            num4: phy.tx_power_w * phy.tx_gain * phy.rx_gain * h2 * h2,
            dc: phy.crossover_distance_m(),
            loss: phy.system_loss,
        }
    }

    // mesh-lint: hot(mean-power-eval)
    /// Mean received power at distance `d` meters; bit-identical to
    /// [`PhyParams::mean_rx_power_w`] of the source parameters.
    ///
    /// `d` must be non-negative (callers pass `sqrt` outputs); unlike
    /// `mean_rx_power_w` this is only checked in debug builds.
    #[inline]
    pub fn eval(&self, d: f64) -> f64 {
        debug_assert!(d >= 0.0, "distance must be non-negative");
        let d = d.max(self.lambda);
        // Denominators keep `mean_rx_power_w`'s association order:
        // Friis `(((C16PI2·d)·d)·L)`, far-field `((((d·d)·d)·d)·L)`.
        if d <= self.dc {
            self.num / (C16PI2 * d * d * self.loss)
        } else {
            self.num4 / (d * d * d * d * self.loss)
        }
    }
    // mesh-lint: end-hot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_range_is_250m() {
        let p = PhyParams::default();
        let r = p.nominal_range_m();
        assert!(
            (r - 250.0).abs() < 5.0,
            "expected ~250m nominal range, got {r}"
        );
    }

    #[test]
    fn default_cs_range_is_550m() {
        let p = PhyParams::default();
        let r = p.carrier_sense_range_m();
        assert!((r - 550.0).abs() < 12.0, "expected ~550m CS range, got {r}");
    }

    #[test]
    fn power_monotonically_decreases() {
        let p = PhyParams::default();
        let mut last = f64::INFINITY;
        for d in [1.0, 10.0, 50.0, 100.0, 200.0, 400.0, 800.0] {
            let pw = p.mean_rx_power_w(d);
            assert!(pw < last, "power should decrease with distance");
            last = pw;
        }
    }

    #[test]
    fn two_ray_matches_friis_below_crossover() {
        let p = PhyParams::default();
        let d = p.crossover_distance_m() * 0.5;
        let lambda = SPEED_OF_LIGHT / p.frequency_hz;
        let friis = p.tx_power_w * p.tx_gain * p.rx_gain * lambda * lambda
            / ((4.0 * std::f64::consts::PI * d).powi(2) * p.system_loss);
        let two_ray = p.mean_rx_power_w(d);
        assert!((two_ray - friis).abs() / friis < 1e-12);
    }

    #[test]
    fn two_ray_decays_faster_beyond_crossover() {
        let p = PhyParams::default();
        let dc = p.crossover_distance_m();
        // Doubling the distance divides power by 16 in the d^4 regime.
        let p1 = p.mean_rx_power_w(2.0 * dc);
        let p2 = p.mean_rx_power_w(4.0 * dc);
        assert!((p1 / p2 - 16.0).abs() < 0.01);
    }

    #[test]
    fn rayleigh_fading_preserves_mean_power() {
        let p = PhyParams::default();
        let mut rng = SimRng::seed_from(11);
        let d = 150.0;
        let mean_model = p.mean_rx_power_w(d);
        let n = 40_000;
        let mean_sampled: f64 = (0..n)
            .map(|_| p.sample_rx_power_w(d, &mut rng))
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean_sampled / mean_model - 1.0).abs() < 0.05,
            "ratio={}",
            mean_sampled / mean_model
        );
    }

    /// The Rayleigh draw alone, through the shared draw and power: the
    /// gain `−ln y` has unit mean.
    #[test]
    fn rayleigh_gain_unit_mean() {
        let mut rng = SimRng::seed_from(6);
        let n = 50_000;
        let fading = FadingModel::Rayleigh;
        let mean: f64 = (0..n)
            .map(|_| fading.power_w(1.0, fading.draw(&mut rng)))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean={mean}");
    }

    #[test]
    fn rayleigh_makes_long_links_lossy_but_not_dead() {
        // At 200m (within nominal range) fading should cause some loss;
        // at 300m (beyond range) fading should allow occasional reception.
        let p = PhyParams::default();
        let mut rng = SimRng::seed_from(13);
        let trials = 20_000;
        let recv_at = |d: f64, rng: &mut SimRng| {
            (0..trials)
                .filter(|_| p.sample_rx_power_w(d, rng) >= p.rx_threshold_w)
                .count() as f64
                / trials as f64
        };
        let p200 = recv_at(200.0, &mut rng);
        let p300 = recv_at(300.0, &mut rng);
        assert!(p200 > 0.6 && p200 < 1.0, "p200={p200}");
        assert!(p300 > 0.0 && p300 < 0.5, "p300={p300}");
        assert!(p200 > p300);
    }

    #[test]
    fn no_fading_samples_the_mean_without_drawing() {
        let p = PhyParams {
            fading: FadingModel::None,
            ..PhyParams::default()
        };
        let mut rng = SimRng::seed_from(19);
        let before = rng.clone().next_u64();
        let d = 100.0;
        assert_eq!(p.sample_rx_power_w(d, &mut rng), p.mean_rx_power_w(d));
        assert_eq!(rng.next_u64(), before, "no fading draws nothing");
    }

    #[test]
    fn propagation_delay_scale() {
        let p = PhyParams::default();
        let d = p.propagation_delay(300.0);
        // 300 m at light speed ≈ 1 microsecond.
        assert!((d.as_secs_f64() - 1.0e-6).abs() < 2e-8);
    }

    #[test]
    fn mean_power_eval_bit_identical() {
        // The evaluator's whole contract is bitwise equality, so compare
        // `to_bits`, not approximate values, over a dense sweep that crosses
        // every regime boundary (wavelength clamp, crossover).
        for system_loss in [1.0, 1.3] {
            let p = PhyParams {
                system_loss,
                ..PhyParams::default()
            };
            let eval = p.mean_power_eval();
            let dc = p.crossover_distance_m();
            let mut sweep: Vec<f64> = (0..2000).map(|i| i as f64 * 1.7).collect();
            sweep.extend([
                0.0,
                1e-9,
                p.wavelength_m(),
                p.wavelength_m() * 1.0000001,
                dc - 1e-9,
                dc,
                dc + 1e-9,
                9.999,
                10.0,
                10.001,
                1739.25,
                99_999.0,
            ]);
            for d in sweep {
                assert_eq!(
                    eval.eval(d).to_bits(),
                    p.mean_rx_power_w(d).to_bits(),
                    "system_loss {system_loss}, d={d}"
                );
            }
        }
    }

    /// The reference: the same bisection, always running all 200 steps.
    fn range_by_200_halvings(p: &PhyParams, thresh: f64) -> f64 {
        let (mut lo, mut hi) = (0.1, 1.0e5);
        if p.mean_rx_power_w(hi) >= thresh {
            return hi;
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if p.mean_rx_power_w(mid) >= thresh {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn range_bisection_matches_200_halvings_to_the_bit() {
        for tx_power_w in [0.001, 0.2818, 1.0] {
            for antenna_height_m in [0.5, 1.5, 10.0] {
                for frequency_hz in [914e6, 2.4e9, 5.8e9] {
                    for system_loss in [1.0, 1.3] {
                        let p = PhyParams {
                            tx_power_w,
                            antenna_height_m,
                            frequency_hz,
                            system_loss,
                            ..PhyParams::default()
                        };
                        // Thresholds from far above the power at 0.1 m to
                        // far below the power at 100 km, plus the powers
                        // at both ends, at the crossover and the defaults.
                        let mut thresholds: Vec<f64> = (0..=120)
                            .map(|i| 10f64.powf(-30.0 + 0.25 * i as f64))
                            .collect();
                        thresholds.extend([
                            p.mean_rx_power_w(0.1),
                            p.mean_rx_power_w(1.0e5),
                            p.mean_rx_power_w(p.crossover_distance_m()),
                            p.rx_threshold_w,
                            p.cs_threshold_w,
                            p.cs_threshold_w / 100.0,
                        ]);
                        for thresh in thresholds {
                            assert_eq!(
                                p.range_for_mean_power(thresh).to_bits(),
                                range_by_200_halvings(&p, thresh).to_bits(),
                                "{p:?} at threshold {thresh:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every draw [`FadingModel::surely_below`] rules out is a draw whose
    /// exact faded power is below the floor, over a fixed grid of draws
    /// (both ends of the uniform's range, seeded values and the draws just
    /// either side of each mean's exact threshold) and of means from 1e-2
    /// to 1e4 times the floor; and the bound rules out most exact drops.
    #[test]
    fn surely_below_rules_out_only_exact_drops() {
        let ulp = 2f64.powi(-53);
        // The uniform draws are multiples of 2⁻⁵³ in [0, 1).
        let on_grid = |u: f64| (u.clamp(0.0, 1.0 - ulp) / ulp).floor() * ulp;
        let mut rng = SimRng::seed_from(0xD20B);
        let seeded: Vec<f64> = (0..4000).map(|_| rng.uniform()).collect();
        let ratios: Vec<f64> = (0..=60)
            .map(|i| 10f64.powf(-2.0 + 0.1 * i as f64))
            .collect();
        for fading in [FadingModel::Rayleigh, FadingModel::None] {
            let (mut exact_drops, mut ruled_out) = (0u64, 0u64);
            for floor_w in [PhyParams::default().cs_threshold_w, 1.0e-3, 1.0] {
                for &ratio in &ratios {
                    let mean_w = floor_w * ratio;
                    // The exact threshold: the gain `−ln(1 − u)` equals
                    // `1 / ratio` at `u = 1 − exp(−1 / ratio)`.
                    let at = 1.0 - (-1.0 / ratio).exp();
                    let mut us = vec![0.0, ulp, 1.0 - ulp];
                    for rel in [0.0, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6] {
                        us.extend([on_grid(at * (1.0 - rel)), on_grid(at * (1.0 + rel))]);
                    }
                    us.extend(&seeded);
                    for u in us {
                        let y = match fading {
                            FadingModel::None => 1.0,
                            FadingModel::Rayleigh => 1.0 - u,
                        };
                        let power_w = fading.power_w(mean_w, y);
                        if fading.surely_below(mean_w, y, floor_w) {
                            assert!(
                                power_w < floor_w,
                                "{fading:?}: u={u:e} mean/floor={ratio:e} floor={floor_w:e} \
                                 ruled out a power of {power_w:e}"
                            );
                            ruled_out += 1;
                        }
                        exact_drops += u64::from(power_w < floor_w);
                    }
                }
            }
            assert!(
                ruled_out as f64 >= 0.9 * exact_drops as f64,
                "{fading:?}: the bound rules out {ruled_out} of {exact_drops} drops"
            );
        }
    }

    #[test]
    fn tiny_distance_clamped() {
        let p = PhyParams::default();
        let at_zero = p.mean_rx_power_w(0.0);
        assert!(at_zero.is_finite());
        assert!(at_zero >= p.mean_rx_power_w(1.0));
    }
}
