//! RMA (Return Merchandise Authorization) failure tickets.
//!
//! Mirrors the paper's Section IV: a ticket records the onset of a failure
//! detected by the DC management framework, the fault taxonomy of Table II,
//! the affected device and its location, and the resolution time. Tickets
//! may be false positives; the paper's analysis (and ours) uses only true
//! positives.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ids::{DeviceId, ServerLocation};
use crate::time::SimTime;
use crate::{Result, TelemetryError};

/// Hardware fault types from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HardwareFault {
    /// Hard-disk failure (leading hardware cause in both DCs).
    Disk,
    /// Memory (DIMM) failure.
    Memory,
    /// Power-delivery failure (PSU, power strip).
    Power,
    /// Other server hardware (motherboard, CPU, fans).
    Server,
    /// NIC or top-of-rack connectivity.
    Network,
}

impl HardwareFault {
    /// All hardware fault types.
    pub const ALL: [HardwareFault; 5] = [
        HardwareFault::Disk,
        HardwareFault::Memory,
        HardwareFault::Power,
        HardwareFault::Server,
        HardwareFault::Network,
    ];
}

impl fmt::Display for HardwareFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HardwareFault::Disk => "Disk failure",
            HardwareFault::Memory => "Memory failure",
            HardwareFault::Power => "Power failure",
            HardwareFault::Server => "Server failure",
            HardwareFault::Network => "Network failure",
        };
        f.write_str(s)
    }
}

/// Software fault types from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SoftwareFault {
    /// Service timeout (the leading cause overall).
    Timeout,
    /// Deployment failure.
    Deployment,
    /// Node or agent crash.
    Crash,
}

impl fmt::Display for SoftwareFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SoftwareFault::Timeout => "Timeout failure",
            SoftwareFault::Deployment => "Deployment failure",
            SoftwareFault::Crash => "Node/Agent crash",
        };
        f.write_str(s)
    }
}

/// Boot fault types from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum BootFault {
    /// PXE network-boot failure.
    Pxe,
    /// Failed reboot.
    Reboot,
}

impl fmt::Display for BootFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BootFault::Pxe => "PXE boot failure",
            BootFault::Reboot => "Reboot failure",
        };
        f.write_str(s)
    }
}

/// The full fault taxonomy of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Physical hardware fault, resolved by repair or replacement.
    Hardware(HardwareFault),
    /// OS/application/service fault, resolved by software fixes.
    Software(SoftwareFault),
    /// Boot failure.
    Boot(BootFault),
    /// Ticket lacking enough information to classify.
    Other,
}

impl FaultKind {
    /// Top-level category name ("Hardware", "Software", "Boot", "Others").
    pub fn category(&self) -> &'static str {
        match self {
            FaultKind::Hardware(_) => "Hardware",
            FaultKind::Software(_) => "Software",
            FaultKind::Boot(_) => "Boot",
            FaultKind::Other => "Others",
        }
    }

    /// Whether this is a physical hardware fault (the class the paper's
    /// three questions are answered on).
    pub fn is_hardware(&self) -> bool {
        matches!(self, FaultKind::Hardware(_))
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Hardware(h) => h.fmt(f),
            FaultKind::Software(s) => s.fmt(f),
            FaultKind::Boot(b) => b.fmt(f),
            FaultKind::Other => f.write_str("Others"),
        }
    }
}

/// One RMA ticket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RmaTicket {
    /// Device the ticket was filed against.
    pub device: DeviceId,
    /// Location of the affected server.
    pub location: ServerLocation,
    /// Fault classification (description field of the ticket).
    pub fault: FaultKind,
    /// When the failure was detected.
    pub opened: SimTime,
    /// When the ticket was resolved (device back in service).
    pub resolved: SimTime,
    /// How many times this fault recurred on the same device.
    pub repeat_count: u32,
    /// Whether the operating engineer found no actual fault.
    pub false_positive: bool,
}

impl RmaTicket {
    /// Validates the ticket's interval.
    ///
    /// # Errors
    ///
    /// Returns [`TelemetryError::InvertedInterval`] if `resolved < opened`.
    pub fn validate(&self) -> Result<()> {
        if self.resolved < self.opened {
            return Err(TelemetryError::InvertedInterval);
        }
        Ok(())
    }

    /// Outage duration in hours.
    pub fn outage_hours(&self) -> u64 {
        self.resolved.hours().saturating_sub(self.opened.hours())
    }
}

/// Filters a ticket stream down to validated true positives, the population
/// the paper analyzes. Invalid (inverted-interval) tickets are dropped too.
pub fn true_positives(tickets: &[RmaTicket]) -> Vec<&RmaTicket> {
    tickets.iter().filter(|t| !t.false_positive && t.validate().is_ok()).collect()
}

/// Like [`true_positives`], but accounts for every excluded row in the
/// quality report instead of dropping it silently: flagged false positives
/// bump `false_positives_excluded`, invalid intervals bump `invalid_dropped`
/// (the latter stays zero on a sanitized stream).
pub fn true_positives_audited<'a>(
    tickets: &'a [RmaTicket],
    report: &mut crate::quality::DataQualityReport,
) -> Vec<&'a RmaTicket> {
    let mut out = Vec::with_capacity(tickets.len());
    for t in tickets {
        if t.false_positive {
            report.false_positives_excluded += 1;
        } else if t.validate().is_err() {
            report.invalid_dropped += 1;
        } else {
            out.push(t);
        }
    }
    out
}

/// Per-category ticket share, reproducing the shape of Table II.
///
/// Returns `(fault kind, count, percent)` rows sorted by descending percent.
/// Percentages are over all true-positive tickets passed in.
pub fn category_breakdown(tickets: &[&RmaTicket]) -> Vec<(FaultKind, usize, f64)> {
    use std::collections::BTreeMap;
    let mut counts: BTreeMap<FaultKind, usize> = BTreeMap::new();
    for t in tickets {
        *counts.entry(t.fault).or_insert(0) += 1;
    }
    let total = tickets.len().max(1) as f64;
    let mut rows: Vec<(FaultKind, usize, f64)> =
        counts.into_iter().map(|(k, c)| (k, c, 100.0 * c as f64 / total)).collect();
    rows.sort_by(|a, b| b.2.total_cmp(&a.2));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{DcId, RackId, RegionId, RowId, ServerId};

    fn loc() -> ServerLocation {
        ServerLocation {
            dc: DcId(1),
            region: RegionId(1),
            row: RowId(1),
            rack: RackId(1),
            server: ServerId(1),
        }
    }

    fn ticket(fault: FaultKind, opened: u64, resolved: u64, fp: bool) -> RmaTicket {
        RmaTicket {
            device: DeviceId(1),
            location: loc(),
            fault,
            opened: SimTime(opened),
            resolved: SimTime(resolved),
            repeat_count: 0,
            false_positive: fp,
        }
    }

    #[test]
    fn validate_rejects_inverted() {
        let t = ticket(FaultKind::Other, 10, 5, false);
        assert_eq!(t.validate(), Err(TelemetryError::InvertedInterval));
        assert!(ticket(FaultKind::Other, 5, 5, false).validate().is_ok());
    }

    #[test]
    fn outage_hours() {
        assert_eq!(ticket(FaultKind::Other, 10, 34, false).outage_hours(), 24);
    }

    #[test]
    fn true_positives_filters() {
        let tickets = vec![
            ticket(FaultKind::Hardware(HardwareFault::Disk), 0, 4, false),
            ticket(FaultKind::Hardware(HardwareFault::Disk), 0, 4, true),
            ticket(FaultKind::Other, 9, 3, false), // inverted
        ];
        let tp = true_positives(&tickets);
        assert_eq!(tp.len(), 1);
    }

    #[test]
    fn true_positives_audited_counts_every_drop() {
        let tickets = vec![
            ticket(FaultKind::Hardware(HardwareFault::Disk), 0, 4, false),
            ticket(FaultKind::Hardware(HardwareFault::Disk), 0, 4, true),
            ticket(FaultKind::Other, 9, 3, false), // inverted
        ];
        let mut report = crate::quality::DataQualityReport::default();
        let tp = true_positives_audited(&tickets, &mut report);
        assert_eq!(tp, true_positives(&tickets));
        assert_eq!(report.false_positives_excluded, 1);
        assert_eq!(report.invalid_dropped, 1);
    }

    #[test]
    fn category_breakdown_percentages() {
        let tickets = [
            ticket(FaultKind::Hardware(HardwareFault::Disk), 0, 1, false),
            ticket(FaultKind::Hardware(HardwareFault::Disk), 0, 1, false),
            ticket(FaultKind::Software(SoftwareFault::Timeout), 0, 1, false),
            ticket(FaultKind::Boot(BootFault::Pxe), 0, 1, false),
        ];
        let refs: Vec<&RmaTicket> = tickets.iter().collect();
        let rows = category_breakdown(&refs);
        assert_eq!(rows[0].0, FaultKind::Hardware(HardwareFault::Disk));
        assert_eq!(rows[0].1, 2);
        assert!((rows[0].2 - 50.0).abs() < 1e-12);
        let total: f64 = rows.iter().map(|r| r.2).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fault_kind_display_and_category() {
        assert_eq!(FaultKind::Hardware(HardwareFault::Disk).to_string(), "Disk failure");
        assert_eq!(FaultKind::Software(SoftwareFault::Crash).category(), "Software");
        assert!(FaultKind::Hardware(HardwareFault::Memory).is_hardware());
        assert!(!FaultKind::Boot(BootFault::Reboot).is_hardware());
    }
}
