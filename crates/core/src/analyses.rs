//! One fleet's shared analysis results, each computed once.
//!
//! The experiments and the conformance runner read some results many times
//! over one simulation output. [`FleetAnalyses`] keys each by its inputs,
//! so a second request returns the first request's instance. It holds no
//! output: every method takes the owner's [`SimulationOutput`], the same
//! one every time.
//!
//! * A key is computed at most once, even when two threads ask together:
//!   the map hands out the key's [`OnceLock`], and the second thread waits.
//! * The `Result` is cached: the inputs are pure, so an error is the true
//!   answer for its key.
//! * The map's lock is never held while computing, and a poisoned lock is
//!   still used: a panicking computation leaves its key empty.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rainshine_cart::params::CartParams;
use rainshine_dcsim::SimulationOutput;
use rainshine_telemetry::frame::Frame;
use rainshine_telemetry::ids::{Sku, Workload};
use rainshine_telemetry::rma::HardwareFault;
use rainshine_telemetry::schema::columns;
use rainshine_telemetry::time::TimeGranularity;

use crate::dataset::{rack_day_response, rack_day_table, FaultFilter};
use crate::q1::{self, ComponentProvisioning, ProvisionParams, ServerProvisioning};
use crate::q2::{self, SkuReliability};
use crate::q3::{self, EnvAnalysis};
use crate::Result;

/// The cached outcome of one key.
type Cell<V> = Arc<OnceLock<Result<Arc<V>>>>;

/// Results of type `V` keyed by `K`, each computed once.
struct Memo<K, V> {
    cells: Mutex<BTreeMap<K, Cell<V>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo { cells: Mutex::new(BTreeMap::new()) }
    }
}

impl<K: Ord, V> Memo<K, V> {
    /// The result for `key`, from `compute` on the first request.
    fn get(&self, key: K, compute: impl FnOnce() -> Result<V>) -> Result<Arc<V>> {
        let cell = Arc::clone(
            self.cells.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default(),
        );
        cell.get_or_init(|| compute().map(Arc::new)).clone()
    }
}

/// A control tree's settings as a key: `min_split`, `min_leaf`,
/// `max_depth` and the bits of `cp`.
type CartKey = (usize, usize, usize, u64);

/// Memoised analyses of one simulation output.
///
/// # Errors
///
/// Each method fails as the public function its entry stands for.
#[derive(Default)]
pub struct FleetAnalyses {
    all_hw: Memo<usize, Frame>,
    disk: Memo<usize, Frame>,
    provisioning: Memo<(Workload, u64, TimeGranularity), ServerProvisioning>,
    env: Memo<(String, usize, CartKey), EnvAnalysis>,
    skus: Memo<(), Vec<SkuReliability>>,
}

impl FleetAnalyses {
    /// The all-hardware rack-day table at `stride` ([`rack_day_table`]).
    pub fn all_hw_table(&self, output: &SimulationOutput, stride: usize) -> Result<Arc<Frame>> {
        self.all_hw.get(stride, || rack_day_table(output, FaultFilter::AllHardware, stride))
    }

    /// The disk rack-day table at `stride`: the all-hardware table with the
    /// disk response swapped in ([`rack_day_response`] through
    /// [`Frame::with_continuous`]), so the two share every feature column.
    /// It equals the disk filter's [`rack_day_table`] column for column.
    pub fn disk_table(&self, output: &SimulationOutput, stride: usize) -> Result<Arc<Frame>> {
        self.disk.get(stride, || {
            let table = self.all_hw_table(output, stride)?;
            let disk = FaultFilter::Component(HardwareFault::Disk);
            let response = rack_day_response(output, disk, stride)?;
            Ok(table.with_continuous(columns::FAILURE_RATE, response)?)
        })
    }

    /// [`q1::provision_servers`] for `workload` under `params`.
    pub fn provisioning(
        &self,
        output: &SimulationOutput,
        workload: Workload,
        params: &ProvisionParams,
    ) -> Result<Arc<ServerProvisioning>> {
        let key = (workload, params.sla.to_bits(), params.granularity);
        self.provisioning.get(key, || q1::provision_servers(output, workload, params))
    }

    /// [`q1::provision_components`], with the server level read from
    /// [`Self::provisioning`]'s entry for the same inputs. Not memoised
    /// itself.
    pub fn provision_components(
        &self,
        output: &SimulationOutput,
        workload: Workload,
        params: &ProvisionParams,
    ) -> Result<ComponentProvisioning> {
        let server = self.provisioning(output, workload, params)?;
        q1::component_costs(output, &server, params)
    }

    /// Fig. 18's [`q3::env_analysis`] of `dc`'s rows of the disk table at
    /// `stride`, subset from its [`q3::ENV_ANALYSIS_COLUMNS`] projection.
    pub fn env_analysis(
        &self,
        output: &SimulationOutput,
        dc: &str,
        stride: usize,
        cart: &CartParams,
    ) -> Result<Arc<EnvAnalysis>> {
        let tree = (cart.min_split, cart.min_leaf, cart.max_depth, cart.cp.to_bits());
        self.env.get((dc.to_owned(), stride, tree), || {
            let projection = self.disk_table(output, stride)?.select(q3::ENV_ANALYSIS_COLUMNS)?;
            q3::env_analysis(dc, &q3::dc_subset(&projection, dc)?, cart)
        })
    }

    /// [`q2::sf_comparison`] of the four SKUs, S1 to S4. Each SKU's row
    /// reads only its own racks, so a row equals the one a call for fewer
    /// SKUs returns.
    pub fn sf_comparison(&self, output: &SimulationOutput) -> Result<Arc<Vec<SkuReliability>>> {
        self.skus.get((), || q2::sf_comparison(output, &[Sku::S1, Sku::S2, Sku::S3, Sku::S4]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisError;

    #[test]
    fn a_key_is_computed_once_and_a_panic_leaves_it_empty() {
        let memo: Memo<u8, u64> = Memo::default();
        let no_data = || AnalysisError::NoData { what: "racks".into() };
        let first = memo.get(1, || Err(no_data()));
        assert_eq!(first, Err(no_data()));
        // The cached error answers again; the second computation never runs.
        assert_eq!(memo.get(1, || unreachable!("key 1 is cached")), first);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get(2, || panic!("computation failed"))
        }));
        assert!(panicked.is_err());
        let three = memo.get(2, || Ok(3)).unwrap();
        assert!(Arc::ptr_eq(&three, &memo.get(2, || Ok(4)).unwrap()));
    }
}
