//! EC2-like instance types: the m4 family used throughout the paper.

use std::fmt;

/// An IaaS instance type with its resource capacities and on-demand price.
///
/// Bandwidths are stored in bytes/second ready for the fabric. The values
/// match the paper's era (2019/2020 us-east-1 m4 family): the paper quotes
/// 750 Mbps dedicated EBS bandwidth for m4.xlarge, 2 000 Mbps for
/// m4.4xlarge and 4 000 Mbps for m4.10xlarge.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// Type name, e.g. `"m4.xlarge"`.
    pub name: &'static str,
    /// Number of vCPUs (one executor core each).
    pub vcpus: u32,
    /// Main memory in MiB.
    pub memory_mb: u64,
    /// Dedicated EBS (disk) bandwidth in bytes/second.
    pub(crate) ebs_bytes_per_sec: f64,
    /// Network bandwidth in bytes/second.
    pub(crate) net_bytes_per_sec: f64,
    /// On-demand price in USD per hour.
    pub hourly_usd: f64,
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

const fn mbps(v: f64) -> f64 {
    v * 1_000_000.0 / 8.0 // megabits/s → bytes/s
}

/// `m4.large`: 2 vCPU, 8 GiB, $0.10/h.
pub const M4_LARGE: InstanceType = InstanceType {
    name: "m4.large",
    vcpus: 2,
    memory_mb: 8 * 1024,
    ebs_bytes_per_sec: mbps(450.0),
    net_bytes_per_sec: mbps(450.0),
    hourly_usd: 0.10,
};

/// `m4.xlarge`: 4 vCPU, 16 GiB, 750 Mbps EBS, $0.20/h. The paper colocates
/// the Spark master and single HDFS node on this type in the PageRank and
/// K-means experiments.
pub const M4_XLARGE: InstanceType = InstanceType {
    name: "m4.xlarge",
    vcpus: 4,
    memory_mb: 16 * 1024,
    ebs_bytes_per_sec: mbps(750.0),
    net_bytes_per_sec: mbps(750.0),
    hourly_usd: 0.20,
};

/// `m4.2xlarge`: 8 vCPU, 32 GiB, $0.40/h.
pub(crate) const M4_2XLARGE: InstanceType = InstanceType {
    name: "m4.2xlarge",
    vcpus: 8,
    memory_mb: 32 * 1024,
    ebs_bytes_per_sec: mbps(1_000.0),
    net_bytes_per_sec: mbps(1_000.0),
    hourly_usd: 0.40,
};

/// `m4.4xlarge`: 16 vCPU, 64 GiB, 2 000 Mbps EBS, $0.80/h. Used for the
/// 16-core PageRank baseline.
pub const M4_4XLARGE: InstanceType = InstanceType {
    name: "m4.4xlarge",
    vcpus: 16,
    memory_mb: 64 * 1024,
    ebs_bytes_per_sec: mbps(2_000.0),
    net_bytes_per_sec: mbps(2_000.0),
    hourly_usd: 0.80,
};

/// `m4.8xlarge`: named by the paper's profiling ladder for the 32-core rung
/// (the real m4 family jumps from 4xlarge to 10xlarge; we model the type the
/// paper names, interpolating its resources).
pub(crate) const M4_8XLARGE: InstanceType = InstanceType {
    name: "m4.8xlarge",
    vcpus: 32,
    memory_mb: 128 * 1024,
    ebs_bytes_per_sec: mbps(3_000.0),
    net_bytes_per_sec: mbps(3_000.0),
    hourly_usd: 1.60,
};

/// `m4.10xlarge`: 40 vCPU, 160 GiB, 4 000 Mbps EBS, $2.00/h. Hosts the
/// 32-core TPC-DS runs as well as the SplitServe master + HDFS in them.
pub const M4_10XLARGE: InstanceType = InstanceType {
    name: "m4.10xlarge",
    vcpus: 40,
    memory_mb: 160 * 1024,
    ebs_bytes_per_sec: mbps(4_000.0),
    net_bytes_per_sec: mbps(4_000.0),
    hourly_usd: 2.00,
};

/// `m4.16xlarge`: 64 vCPU, 256 GiB, $3.20/h. Hosts the 64-core SparkPi runs.
pub const M4_16XLARGE: InstanceType = InstanceType {
    name: "m4.16xlarge",
    vcpus: 64,
    memory_mb: 256 * 1024,
    ebs_bytes_per_sec: mbps(10_000.0),
    net_bytes_per_sec: mbps(10_000.0),
    hourly_usd: 3.20,
};

/// The whole m4 family, smallest first.
pub(crate) fn m4_family() -> Vec<InstanceType> {
    vec![
        M4_LARGE,
        M4_XLARGE,
        M4_2XLARGE,
        M4_4XLARGE,
        M4_8XLARGE,
        M4_10XLARGE,
        M4_16XLARGE,
    ]
}

/// The fewest m4 instances that provide at least `cores` vCPUs, preferring
/// the largest types to minimize inter-VM communication — the packing rule
/// of the paper's Fig. 4(b) profiling ("for each degree of parallelism, we
/// use the fewest number of instances that provide the required number of
/// cores").
///
/// # Examples
///
/// ```
/// use splitserve_cloud::fewest_instances_for_cores;
///
/// let fleet = fewest_instances_for_cores(128);
/// assert_eq!(fleet.len(), 2);
/// assert_eq!(fleet[0].name, "m4.16xlarge");
/// ```
///
/// # Panics
///
/// Panics if `cores` is zero.
pub fn fewest_instances_for_cores(cores: u32) -> Vec<InstanceType> {
    assert!(cores > 0, "need at least one core");
    let family = m4_family();
    let mut fleet = Vec::new();
    let mut remaining = cores;
    while remaining > 0 {
        // Smallest single instance that covers the remainder, else the
        // largest available.
        let pick = family
            .iter()
            .find(|t| t.vcpus >= remaining)
            .unwrap_or_else(|| family.last().expect("family not empty"));
        remaining = remaining.saturating_sub(pick.vcpus);
        fleet.push(pick.clone());
    }
    fleet
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_is_sorted_by_size_and_price() {
        let fam = m4_family();
        for w in fam.windows(2) {
            assert!(w[0].vcpus <= w[1].vcpus);
            assert!(w[0].hourly_usd <= w[1].hourly_usd);
        }
    }

    #[test]
    fn paper_packing_ladder() {
        // The exact ladder from §5.1: 1-2, 4, 8, 16, 32, 64, 128 cores.
        let expect = [
            (1, vec!["m4.large"]),
            (2, vec!["m4.large"]),
            (4, vec!["m4.xlarge"]),
            (8, vec!["m4.2xlarge"]),
            (16, vec!["m4.4xlarge"]),
            (32, vec!["m4.8xlarge"]),
            (64, vec!["m4.16xlarge"]),
            (128, vec!["m4.16xlarge", "m4.16xlarge"]),
        ];
        for (cores, names) in expect {
            let fleet = fewest_instances_for_cores(cores);
            let got: Vec<&str> = fleet.iter().map(|t| t.name).collect();
            assert_eq!(got, names, "for {cores} cores");
        }
    }

    #[test]
    fn fleet_always_covers_requested_cores() {
        for cores in 1..200 {
            let fleet = fewest_instances_for_cores(cores);
            let total: u32 = fleet.iter().map(|t| t.vcpus).sum();
            assert!(total >= cores, "{cores} cores not covered: {total}");
        }
    }

    #[test]
    fn bandwidth_units_are_bytes_per_second() {
        // 750 Mbps = 93.75 MB/s
        assert!((M4_XLARGE.ebs_bytes_per_sec - 93_750_000.0).abs() < 1.0);
    }
}
