//! Strongly-typed identifiers for the datacenter spatial hierarchy and the
//! SKU / workload catalogs.
//!
//! The paper's fleet is organized as datacenter → region → row of racks →
//! rack → server chassis → components (Table III). Newtypes keep these from
//! being confused in analysis code.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Datacenter identifier. The paper studies `DC1` and `DC2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DcId(pub u8);

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DC{}", self.0)
    }
}

/// Region within a datacenter (e.g. `DC1-1` … `DC1-4` in Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u8);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region {}", self.0)
    }
}

/// Row of racks within a datacenter (DC1: 1–18, DC2: 1–32 per Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RowId(pub u16);

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "row {}", self.0)
    }
}

/// Rack identifier, unique within the whole fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RackId(pub u32);

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Server identifier, unique within the whole fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Device identifier for RMA tracking (`C1-Cxxxxx` in Table III): a server
/// or one of its components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub u64);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Server hardware configuration ("SKU" — stock keeping unit, a proxy for a
/// vendor + model combination).
///
/// Per Table III: S1 & S3 are storage-intensive, S2 & S4 compute-intensive,
/// S5 & S6 mixed, S7 HPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Sku {
    /// Storage-intensive configuration, vendor A.
    S1,
    /// Compute-intensive configuration, vendor A.
    S2,
    /// Storage-intensive configuration, vendor B.
    S3,
    /// Compute-intensive configuration, vendor B.
    S4,
    /// Mixed configuration, vendor A.
    S5,
    /// Mixed configuration, vendor B.
    S6,
    /// HPC configuration.
    S7,
}

/// Broad class of a SKU's resource balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SkuClass {
    /// Few servers per rack, many disks per server.
    StorageIntensive,
    /// Many servers per rack, few disks per server.
    ComputeIntensive,
    /// Balanced.
    Mixed,
    /// High-performance computing.
    Hpc,
}

impl Sku {
    /// All SKUs in catalog order.
    pub const ALL: [Sku; 7] = [Sku::S1, Sku::S2, Sku::S3, Sku::S4, Sku::S5, Sku::S6, Sku::S7];

    /// The SKU's class per Table III.
    pub fn class(&self) -> SkuClass {
        match self {
            Sku::S1 | Sku::S3 => SkuClass::StorageIntensive,
            Sku::S2 | Sku::S4 => SkuClass::ComputeIntensive,
            Sku::S5 | Sku::S6 => SkuClass::Mixed,
            Sku::S7 => SkuClass::Hpc,
        }
    }

    /// Stable 0-based index in [`Sku::ALL`] (the declaration order).
    pub fn index(&self) -> usize {
        *self as usize
    }
}

impl fmt::Display for Sku {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.index() + 1)
    }
}

/// Workload category hosted on a rack (provisioning is rack-granular in the
/// paper's datacenters).
///
/// Per Table III: W1 & W2 compute, W3 HPC, W4 & W7 storage-compute,
/// W5 & W6 storage-data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Workload {
    /// Compute-intensive, interactive.
    W1,
    /// Compute-intensive, batch (highest observed failure rate, Fig. 6).
    W2,
    /// HPC (lowest observed failure rate, Fig. 6).
    W3,
    /// Storage-compute.
    W4,
    /// Storage-data.
    W5,
    /// Storage-data.
    W6,
    /// Storage-compute.
    W7,
}

/// Broad class of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WorkloadClass {
    /// Compute-dominant.
    Compute,
    /// High-performance computing.
    Hpc,
    /// Mixed storage + compute.
    StorageCompute,
    /// Storage-dominant (data serving).
    StorageData,
}

impl Workload {
    /// All workloads in catalog order.
    pub const ALL: [Workload; 7] = [
        Workload::W1,
        Workload::W2,
        Workload::W3,
        Workload::W4,
        Workload::W5,
        Workload::W6,
        Workload::W7,
    ];

    /// The workload's class per Table III.
    pub fn class(&self) -> WorkloadClass {
        match self {
            Workload::W1 | Workload::W2 => WorkloadClass::Compute,
            Workload::W3 => WorkloadClass::Hpc,
            Workload::W4 | Workload::W7 => WorkloadClass::StorageCompute,
            Workload::W5 | Workload::W6 => WorkloadClass::StorageData,
        }
    }

    /// Stable 0-based index in [`Workload::ALL`] (the declaration order).
    pub fn index(&self) -> usize {
        *self as usize
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W{}", self.index() + 1)
    }
}

/// Full spatial address of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ServerLocation {
    /// Datacenter.
    pub dc: DcId,
    /// Region within the datacenter.
    pub region: RegionId,
    /// Row within the datacenter.
    pub row: RowId,
    /// Rack.
    pub rack: RackId,
    /// Server.
    pub server: ServerId,
}

impl fmt::Display for ServerLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}/{}/{}", self.dc, self.region, self.row, self.rack, self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(DcId(1).to_string(), "DC1");
        assert_eq!(RackId(331).to_string(), "R331");
        assert_eq!(Sku::S4.to_string(), "S4");
        assert_eq!(Workload::W6.to_string(), "W6");
    }

    #[test]
    fn sku_classes_match_table_iii() {
        assert_eq!(Sku::S1.class(), SkuClass::StorageIntensive);
        assert_eq!(Sku::S3.class(), SkuClass::StorageIntensive);
        assert_eq!(Sku::S2.class(), SkuClass::ComputeIntensive);
        assert_eq!(Sku::S4.class(), SkuClass::ComputeIntensive);
        assert_eq!(Sku::S5.class(), SkuClass::Mixed);
        assert_eq!(Sku::S7.class(), SkuClass::Hpc);
    }

    #[test]
    fn workload_classes_match_table_iii() {
        assert_eq!(Workload::W1.class(), WorkloadClass::Compute);
        assert_eq!(Workload::W3.class(), WorkloadClass::Hpc);
        assert_eq!(Workload::W4.class(), WorkloadClass::StorageCompute);
        assert_eq!(Workload::W7.class(), WorkloadClass::StorageCompute);
        assert_eq!(Workload::W5.class(), WorkloadClass::StorageData);
    }

    #[test]
    fn indices_are_stable() {
        for (i, s) in Sku::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, w) in Workload::ALL.iter().enumerate() {
            assert_eq!(w.index(), i);
        }
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let set: BTreeSet<RackId> = [RackId(3), RackId(1), RackId(2)].into_iter().collect();
        assert_eq!(set.iter().next(), Some(&RackId(1)));
    }
}
