//! Executor descriptors: the engine's view of a compute slot.
//!
//! Following the paper (§5.1) every executor has exactly one core, so
//! "executor" and "core" are synonymous throughout.

use splitserve_des::LinkId;
use splitserve_rt::Interned;
use splitserve_storage::ClientLoc;

/// Unique executor id — also the executor's directory prefix in the block
/// store (paper §4.3: "executors use their uniquely identifiable and
/// distinguishable IDs as an entry point into this directory structure").
///
/// A `Copy` handle over a process-wide interned name (see
/// [`splitserve_rt::intern`]): equality and hashing are O(1) symbol
/// compares, while `Ord` keeps the old `String` lexicographic order so
/// id-sorted tables — and therefore dispatch order and every
/// virtual-time artifact — are unchanged by the interning.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExecutorId(Interned);

impl ExecutorId {
    /// Interns `name` (or finds it) and returns the id.
    pub fn new(name: impl AsRef<str>) -> ExecutorId {
        ExecutorId(Interned::new(name.as_ref()))
    }

    /// The executor's name.
    #[inline]
    pub fn as_str(&self) -> &'static str {
        self.0.as_str()
    }

    /// The dense `u32` symbol backing this id — index for sparse
    /// per-engine side tables.
    #[inline]
    pub fn sym(&self) -> u32 {
        self.0.sym()
    }
}

impl std::fmt::Display for ExecutorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for ExecutorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ExecutorId({:?})", self.as_str())
    }
}

impl From<&str> for ExecutorId {
    fn from(s: &str) -> Self {
        ExecutorId::new(s)
    }
}

impl From<&String> for ExecutorId {
    fn from(s: &String) -> Self {
        ExecutorId::new(s)
    }
}

impl From<String> for ExecutorId {
    fn from(s: String) -> Self {
        ExecutorId::new(&s)
    }
}

impl From<ExecutorId> for Interned {
    fn from(id: ExecutorId) -> Self {
        id.0
    }
}

/// Whether the executor runs on a VM or inside a cloud function — the
/// distinction SplitServe adds to Spark's scheduler data structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutorKind {
    /// IaaS-backed: long-lived, full core speed, large memory.
    Vm,
    /// FaaS-backed: agile but memory-limited, lifetime-limited, with
    /// memory-proportional CPU and network.
    Lambda,
}

impl ExecutorKind {
    /// `"vm"` / `"lambda"`: the `kind` label of the registry series, the
    /// executor's span lane and the [`Display`](std::fmt::Display) form.
    pub fn label(self) -> &'static str {
        match self {
            ExecutorKind::Vm => "vm",
            ExecutorKind::Lambda => "lambda",
        }
    }
}

impl std::fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the scheduler needs to know about an executor.
#[derive(Debug, Clone)]
pub struct ExecutorDesc {
    /// Unique id.
    pub id: ExecutorId,
    /// VM- or Lambda-backed.
    pub kind: ExecutorKind,
    /// Network link of the hosting node/container.
    pub nic: Option<LinkId>,
    /// Local-disk link, if the host has one (Lambdas effectively don't:
    /// their 512 MB `/tmp` is too small for shuffle service duty).
    pub disk: Option<LinkId>,
    /// Memory available to the executor in MB (drives GC pressure).
    pub memory_mb: u64,
    /// Core speed relative to a reference VM core: 1 on a VM, the share
    /// the cloud's CPU model gives a Lambda
    /// ([`splitserve_cloud::lambda_core_share`]).
    pub(crate) core_speed: f64,
}

impl ExecutorDesc {
    /// A full-speed VM executor.
    pub fn vm(id: impl AsRef<str>, nic: LinkId, disk: LinkId, memory_mb: u64) -> Self {
        ExecutorDesc {
            id: ExecutorId::new(id),
            kind: ExecutorKind::Vm,
            nic: Some(nic),
            disk: Some(disk),
            memory_mb,
            core_speed: 1.0,
        }
    }

    /// A Lambda executor with `memory_mb` of memory, computing at the
    /// share of a VM core the cloud's CPU model gives that memory
    /// ([`splitserve_cloud::lambda_core_share`]).
    pub fn lambda(id: impl AsRef<str>, nic: LinkId, memory_mb: u64) -> Self {
        ExecutorDesc {
            id: ExecutorId::new(id),
            kind: ExecutorKind::Lambda,
            nic: Some(nic),
            disk: None,
            memory_mb,
            core_speed: splitserve_cloud::lambda_core_share(memory_mb),
        }
    }

    /// The executor's location for block-store transfers.
    pub(crate) fn client_loc(&self) -> ClientLoc {
        ClientLoc {
            nic: self.nic,
            disk: self.disk,
        }
    }

    /// Memory in bytes.
    pub(crate) fn memory_bytes(&self) -> u64 {
        self.memory_mb * 1024 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve_cloud::lambda_core_share;
    use splitserve_des::Fabric;

    #[test]
    fn lambda_speed_scales_with_memory() {
        let fabric = Fabric::new();
        let nic = fabric.add_link(1.0, "n");
        let small = ExecutorDesc::lambda("l1", nic, 768);
        let paper = ExecutorDesc::lambda("l2", nic, 1536);
        let max = ExecutorDesc::lambda("l3", nic, 3008);
        assert_eq!(paper.core_speed, lambda_core_share(1536), "the cloud's share");
        assert!((small.core_speed * 2.0 - paper.core_speed).abs() < 1e-12);
        assert!(paper.core_speed < 1.0);
        assert_eq!(max.core_speed, 1.0, "capped at one core");
    }

    #[test]
    fn vm_executor_has_disk_lambda_does_not() {
        let fabric = Fabric::new();
        let nic = fabric.add_link(1.0, "n");
        let disk = fabric.add_link(1.0, "d");
        let vm = ExecutorDesc::vm("v", nic, disk, 4096);
        let la = ExecutorDesc::lambda("l", nic, 1536);
        assert!(vm.client_loc().disk.is_some());
        assert!(la.client_loc().disk.is_none());
        assert_eq!(vm.kind, ExecutorKind::Vm);
        assert_eq!(la.kind, ExecutorKind::Lambda);
    }

    #[test]
    fn display_impls() {
        assert_eq!(ExecutorId::from("e-1").to_string(), "e-1");
        assert_eq!(ExecutorKind::Lambda.to_string(), "lambda");
    }
}
