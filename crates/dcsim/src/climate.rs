//! Site weather models.
//!
//! The two datacenters sit in different climates (Section IV: "different
//! geographic locations … external environment (weather, altitude)").
//! We model outdoor temperature and relative humidity as annual + diurnal
//! sinusoids plus bounded deterministic noise. Noise is *hash-based* — a
//! pure function of `(site seed, hour)` — so the environment is perfectly
//! reproducible without threading RNG state through the simulation.

/// SplitMix64 — deterministic hash used for environmental noise.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic pseudo-noise value in `[0, 1)` for a `(seed, index)`
/// pair.
pub fn unit_noise(seed: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(index));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic pseudo-noise value in `[-1, 1)`.
pub fn signed_noise(seed: u64, index: u64) -> f64 {
    2.0 * unit_noise(seed, index) - 1.0
}

/// Outdoor weather at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weather {
    /// Dry-bulb temperature, °F.
    pub temp_f: f64,
    /// Relative humidity, %.
    pub rh: f64,
}

/// A site climate: annual and diurnal sinusoids with noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteClimate {
    /// Annual mean temperature, °F.
    pub mean_temp_f: f64,
    /// Annual temperature amplitude, °F (peak mid-July).
    pub annual_amp_f: f64,
    /// Diurnal temperature amplitude, °F (peak 15:00).
    pub diurnal_amp_f: f64,
    /// Hour-to-hour temperature noise amplitude, °F.
    pub temp_noise_f: f64,
    /// Annual mean relative humidity, %.
    pub mean_rh: f64,
    /// How strongly RH anti-correlates with the temperature anomaly
    /// (% RH per °F above the annual mean).
    pub rh_temp_coupling: f64,
    /// RH noise amplitude, %.
    pub rh_noise: f64,
    /// Noise seed distinguishing sites.
    pub seed: u64,
}

impl SiteClimate {
    /// A hot, dry site (the paper's DC1 uses adiabatic cooling, which is
    /// "effective in warm, dry climates").
    pub fn warm_dry(seed: u64) -> Self {
        SiteClimate {
            mean_temp_f: 74.0,
            annual_amp_f: 21.0,
            diurnal_amp_f: 13.0,
            temp_noise_f: 4.0,
            mean_rh: 32.0,
            rh_temp_coupling: 0.9,
            rh_noise: 7.0,
            seed,
        }
    }

    /// A temperate, humid site (DC2, chilled-water HVAC).
    pub fn temperate(seed: u64) -> Self {
        SiteClimate {
            mean_temp_f: 54.0,
            annual_amp_f: 14.0,
            diurnal_amp_f: 8.0,
            temp_noise_f: 3.0,
            mean_rh: 62.0,
            rh_temp_coupling: 0.5,
            rh_noise: 6.0,
            seed,
        }
    }

    /// Weather at `hour` (hours since the 2012-01-01 epoch), given the
    /// fraction of the calendar year elapsed.
    pub fn weather(&self, hour: u64, year_fraction: f64) -> Weather {
        use std::f64::consts::TAU;
        // Annual cycle peaks mid-July (fraction ~0.54).
        let annual = (TAU * (year_fraction - 0.29)).sin();
        // Diurnal cycle peaks at 15:00.
        let hour_of_day = (hour % 24) as f64;
        let diurnal = (TAU * (hour_of_day - 9.0) / 24.0).sin();
        let t_noise = signed_noise(self.seed, hour) * self.temp_noise_f;
        let temp_f =
            self.mean_temp_f + self.annual_amp_f * annual + self.diurnal_amp_f * diurnal + t_noise;
        let rh_noise = signed_noise(self.seed.wrapping_add(1), hour) * self.rh_noise;
        let anomaly = temp_f - self.mean_temp_f;
        let rh = (self.mean_rh - self.rh_temp_coupling * anomaly + rh_noise).clamp(3.0, 100.0);
        Weather { temp_f, rh }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rainshine_telemetry::time::SimTime;

    fn weather_at(c: &SiteClimate, t: SimTime) -> Weather {
        c.weather(t.hours(), t.year_fraction())
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        for i in 0..1000 {
            let a = unit_noise(42, i);
            let b = unit_noise(42, i);
            assert_eq!(a, b);
            assert!((0.0..1.0).contains(&a));
            assert!((-1.0..1.0).contains(&signed_noise(42, i)));
        }
        assert_ne!(unit_noise(1, 5), unit_noise(2, 5));
    }

    #[test]
    fn noise_mean_is_near_half() {
        let mean: f64 = (0..10_000).map(|i| unit_noise(9, i)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn summer_hotter_than_winter() {
        let c = SiteClimate::warm_dry(1);
        let winter = weather_at(&c, SimTime::from_date(2012, 1, 15, 12));
        let summer = weather_at(&c, SimTime::from_date(2012, 7, 15, 12));
        assert!(summer.temp_f > winter.temp_f + 20.0);
    }

    #[test]
    fn afternoon_hotter_than_night() {
        let c = SiteClimate::warm_dry(1);
        let night = weather_at(&c, SimTime::from_date(2012, 7, 15, 3));
        let noonish = weather_at(&c, SimTime::from_date(2012, 7, 15, 15));
        assert!(noonish.temp_f > night.temp_f + 10.0);
    }

    #[test]
    fn warm_dry_summer_is_hot_and_dry() {
        let c = SiteClimate::warm_dry(1);
        let mut hot_hours = 0;
        let mut dry_hours = 0;
        let mut n = 0;
        for day in 0..30 {
            for hour in [12, 15, 18] {
                let t = SimTime::from_date(2012, 7, 1, hour).plus_days(day);
                let w = weather_at(&c, t);
                if w.temp_f > 95.0 {
                    hot_hours += 1;
                }
                if w.rh < 25.0 {
                    dry_hours += 1;
                }
                n += 1;
            }
        }
        assert!(hot_hours > n / 4, "hot afternoons: {hot_hours}/{n}");
        assert!(dry_hours > n / 2, "dry afternoons: {dry_hours}/{n}");
    }

    #[test]
    fn temperate_site_stays_humid() {
        let c = SiteClimate::temperate(2);
        let mut min_rh = f64::INFINITY;
        for day in 0..365 {
            let t = SimTime::from_days(day).plus_hours(14);
            let w = weather_at(&c, t);
            min_rh = min_rh.min(w.rh);
        }
        assert!(min_rh > 25.0, "min rh {min_rh}");
    }

    #[test]
    fn rh_clamped_to_valid_range() {
        let c = SiteClimate::warm_dry(3);
        for h in 0..(24 * 400) {
            let t = SimTime(h);
            let w = weather_at(&c, t);
            assert!((3.0..=100.0).contains(&w.rh), "rh {} at {h}", w.rh);
        }
    }
}
