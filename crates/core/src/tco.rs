//! Total-cost-of-ownership model.
//!
//! A parametric stand-in for the commercial cost tools the paper uses
//! (the paper's ref. \[4\] for unit prices, Kontorinis et al. \[24\] for the
//! TCO breakdown).
//! All quantities are in *relative cost units* anchored to the paper's
//! server:disk:DIMM = 100:2:10 price ratio.

/// TCO parameters per server over the amortization horizon.
///
/// Defaults follow the Kontorinis et al. breakdown: servers are a bit over
/// half of TCO, with power/cooling infrastructure and energy making up most
/// of the rest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcoModel {
    /// Purchase price of one production server (relative units).
    pub server_price: f64,
    /// Amortized power/cooling/building infrastructure per deployed server.
    pub infra_per_server: f64,
    /// Lifetime energy cost (PUE-inflated) of an *active* server.
    pub energy_per_server: f64,
    /// Fraction of the active-server energy a hot spare consumes.
    pub spare_energy_fraction: f64,
    /// Maintenance cost per hardware failure (technician time + logistics).
    pub maintenance_per_failure: f64,
}

impl Default for TcoModel {
    fn default() -> Self {
        TcoModel {
            server_price: 100.0,
            infra_per_server: 55.0,
            energy_per_server: 50.0,
            spare_energy_fraction: 0.5,
            maintenance_per_failure: 25.0,
        }
    }
}

impl TcoModel {
    /// Full cost of one deployed production server.
    fn cost_per_base_server(&self) -> f64 {
        self.server_price + self.infra_per_server + self.energy_per_server
    }

    /// Full cost of one server-class spare (idles at reduced energy).
    fn cost_per_spare_server(&self) -> f64 {
        self.server_price
            + self.infra_per_server
            + self.spare_energy_fraction * self.energy_per_server
    }

    /// TCO of a deployment with `base_servers` production servers and
    /// `spare_servers` spares (fractional spares allowed: they represent
    /// per-rack fractions summed over many racks).
    pub fn deployment_tco(&self, base_servers: f64, spare_servers: f64) -> f64 {
        base_servers * self.cost_per_base_server() + spare_servers * self.cost_per_spare_server()
    }

    /// Relative TCO savings of provisioning `spares_a` instead of
    /// `spares_b` for the same `base_servers` (the paper's Table IV:
    /// `a = MF`, `b = SF`). Positive when `a` is cheaper.
    pub fn relative_savings(&self, base_servers: f64, spares_a: f64, spares_b: f64) -> f64 {
        let tco_a = self.deployment_tco(base_servers, spares_a);
        let tco_b = self.deployment_tco(base_servers, spares_b);
        if tco_b == 0.0 {
            return 0.0;
        }
        (tco_b - tco_a) / tco_b
    }

    /// Per-server TCO of procuring a SKU at `price` with spare fraction
    /// `spare_frac` and `failures_per_server` expected hardware failures
    /// over the horizon (the Q2 procurement comparison).
    pub fn sku_tco(&self, price: f64, spare_frac: f64, failures_per_server: f64) -> f64 {
        price * (1.0 + spare_frac)
            + self.infra_per_server
            + self.energy_per_server
            + self.maintenance_per_failure * failures_per_server
    }

    /// Relative savings of procuring SKU `a` over SKU `b` (positive when
    /// `a` is cheaper per server).
    pub fn sku_savings(&self, a: f64, b: f64) -> f64 {
        if b == 0.0 {
            return 0.0;
        }
        (b - a) / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_ballpark() {
        let m = TcoModel::default();
        // Server share of base TCO ≈ half (Kontorinis breakdown).
        let share = m.server_price / m.cost_per_base_server();
        assert!((0.4..0.6).contains(&share), "server share {share}");
        // A spare is cheaper than a production server but not free.
        assert!(m.cost_per_spare_server() < m.cost_per_base_server());
        assert!(m.cost_per_spare_server() > m.server_price);
    }

    #[test]
    fn savings_matches_hand_computation() {
        let m = TcoModel::default();
        // 100 servers; MF 18 spares vs SF 40 spares.
        let s = m.relative_savings(100.0, 18.0, 40.0);
        let tco_mf = 100.0 * 205.0 + 18.0 * 180.0;
        let tco_sf = 100.0 * 205.0 + 40.0 * 180.0;
        assert!((s - (tco_sf - tco_mf) / tco_sf).abs() < 1e-12);
        assert!(s > 0.1 && s < 0.2, "savings {s}");
    }

    #[test]
    fn equal_spares_zero_savings() {
        let m = TcoModel::default();
        assert_eq!(m.relative_savings(10.0, 3.0, 3.0), 0.0);
        assert!(m.relative_savings(10.0, 5.0, 3.0) < 0.0, "more spares cost more");
    }

    #[test]
    fn sku_tco_penalizes_failure_rate() {
        let m = TcoModel::default();
        // Same price, worse reliability -> strictly more expensive.
        let unreliable = m.sku_tco(100.0, 0.10, 8.0);
        let reliable = m.sku_tco(100.0, 0.03, 2.0);
        assert!(unreliable > reliable);
        let expected_gap = (0.10 - 0.03) * 100.0 + m.maintenance_per_failure * 6.0;
        assert!((unreliable - reliable - expected_gap).abs() < 1e-9);
        // Savings sign convention: positive when the first argument is
        // cheaper.
        assert!(m.sku_savings(reliable, unreliable) > 0.0);
        assert!(m.sku_savings(unreliable, reliable) < 0.0);
    }
}
