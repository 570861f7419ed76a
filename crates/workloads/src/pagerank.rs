//! HiBench-style WebSearch (PageRank): CPU-intensive iterations with heavy
//! shuffle I/O — the paper's large-shuffle workload (Figures 4, 6, 7).


use splitserve::DriverProgram;
use splitserve_des::Sim;
use splitserve_engine::{collect_partitions, Dataset, Engine};

use crate::gen::{partition_range, partition_rng, power_law};

/// PageRank over a synthetic power-law web graph.
///
/// One engine job runs all iterations (as Spark's example PageRank does:
/// the lineage grows across the loop and a single action at the end
/// triggers execution). Each iteration contributes a `links ⋈ ranks` join
/// (two shuffles) plus a `reduceByKey` (one shuffle), so `i` iterations
/// produce `3·i + 1` stages.
///
/// # Examples
///
/// ```
/// use splitserve_engine::build_stages;
/// use splitserve_workloads::PageRank;
///
/// let pr = PageRank::new(25_000, 2, 8, 1);
/// assert_eq!(build_stages(pr.plan().node()).len(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct PageRank {
    /// Number of pages.
    pub pages: u64,
    /// PageRank iterations.
    pub iterations: usize,
    /// Degree of parallelism (partitions per stage).
    pub parallelism: usize,
    /// Graph seed.
    pub seed: u64,
    /// Per-contribution CPU seconds charged in the contribution stage —
    /// calibrated to JVM Spark's per-record overhead so figure-scale runs
    /// land at the paper's job durations.
    pub(crate) contrib_cost_secs: f64,
    /// In-link skew exponent: destinations are drawn as
    /// `pages · u^dst_skew`, so larger values concentrate in-links on few
    /// hot pages — the straggler-inducing skew of real web graphs that
    /// caps scaling at high parallelism (the paper's Fig. 4 U-curve and
    /// its "straggler problems common to BSP workloads").
    pub(crate) dst_skew: f64,
}

/// The damping factor used by the classic formulation.
pub(crate) const DAMPING: f64 = 0.85;

impl PageRank {
    /// A PageRank workload over `pages` pages.
    pub fn new(pages: u64, iterations: usize, parallelism: usize, seed: u64) -> Self {
        PageRank {
            pages,
            iterations,
            parallelism,
            seed,
            contrib_cost_secs: 2.0e-5,
            dst_skew: 3.0,
        }
    }

    /// Overrides the per-contribution CPU cost.
    pub fn with_contrib_cost(mut self, secs: f64) -> Self {
        self.contrib_cost_secs = secs;
        self
    }

    /// The adjacency dataset: `(page, out_links)` with power-law
    /// out-degrees and uniform destinations.
    pub fn links(&self) -> Dataset<(u64, Vec<u64>)> {
        let pages = self.pages;
        let seed = self.seed;
        let parts = self.parallelism;
        let skew = self.dst_skew;
        Dataset::generate(parts, move |p| {
            let (start, end) = partition_range(pages, parts, p);
            let mut rng = partition_rng(seed, p);
            (start..end)
                .map(|page| {
                    let degree = power_law(&mut rng, 2.1, 40);
                    let dsts = (0..degree)
                        .map(|_| {
                            let u: f64 = rng.gen_range(0.0..1.0);
                            ((pages as f64 * u.powf(skew)) as u64).min(pages - 1)
                        })
                        .collect();
                    (page, dsts)
                })
                .collect()
        })
    }

    /// Builds the full multi-iteration lineage ending in the final ranks.
    pub fn plan(&self) -> Dataset<(u64, f64)> {
        let p = self.parallelism;
        let links = self.links();
        let pages = self.pages;
        let mut ranks: Dataset<(u64, f64)> = {
            let parts = p;
            Dataset::generate(parts, move |part| {
                let (start, end) = partition_range(pages, parts, part);
                (start..end).map(|pg| (pg, 1.0f64)).collect()
            })
        };
        let contrib_cost = self.contrib_cost_secs;
        for _ in 0..self.iterations {
            let contribs = links
                .join(&ranks, p)
                .flat_map(|(_, (dsts, rank))| {
                    let share = rank / dsts.len() as f64;
                    dsts.into_iter().map(move |d| (d, share))
                })
                .map_with_cost(|kv| *kv, Some(contrib_cost));
            ranks = contribs
                .reduce_by_key(p, |a, b| a + b)
                .map_values(|sum| 1.0 - DAMPING + DAMPING * sum);
        }
        ranks
    }
}

impl DriverProgram for PageRank {
    fn name(&self) -> String {
        format!("PageRank({} pages, {} iters)", self.pages, self.iterations)
    }

    fn parallelism(&self) -> usize {
        self.parallelism
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let plan = self.plan();
        let pages = self.pages;
        engine.submit_job(sim, plan.node(), move |sim, out| {
            // Sanity-check the real computation before declaring success.
            let ranks = collect_partitions::<(u64, f64)>(out.partitions);
            assert!(!ranks.is_empty(), "PageRank produced no ranks");
            assert!(
                ranks.iter().all(|(pg, r)| *pg < pages && r.is_finite() && *r > 0.0),
                "invalid rank values"
            );
            done(sim);
        });
    }
}

/// Reference single-threaded PageRank for cross-checking the distributed
/// result in tests.
pub fn reference_pagerank(workload: &PageRank) -> Vec<(u64, f64)> {
    // Regenerate the same graph, partition by partition.
    let node = workload.links().node();
    let parts: Vec<_> = (0..node.num_partitions())
        .map(|part| {
            let mut ctx = splitserve_engine::TaskContext::empty(Default::default());
            node.compute(&mut ctx, part)
        })
        .collect();
    let adjacency = || {
        parts.iter().flat_map(|data| {
            data.downcast_ref::<Vec<(u64, Vec<u64>)>>().expect("links type")
        })
    };
    // Indexed by page. A page no contribution reaches drops out of
    // `ranked` after the first iteration, exactly as the distributed join
    // drops it; its `ranks` entry then means nothing.
    let pages = workload.pages as usize;
    let mut ranks = vec![1.0f64; pages];
    let mut ranked = vec![true; pages];
    let mut contrib = vec![0.0f64; pages];
    let mut reached = vec![false; pages];
    for _ in 0..workload.iterations {
        contrib.fill(0.0);
        reached.fill(false);
        for (src, dsts) in adjacency() {
            let src = *src as usize;
            if !ranked[src] {
                continue;
            }
            let share = ranks[src] / dsts.len() as f64;
            for &d in dsts {
                contrib[d as usize] += share;
                reached[d as usize] = true;
            }
        }
        for (rank, sum) in ranks.iter_mut().zip(&contrib) {
            *rank = 1.0 - DAMPING + DAMPING * sum;
        }
        std::mem::swap(&mut ranked, &mut reached);
    }
    (0..pages)
        .filter(|&page| ranked[page])
        .map(|page| (page as u64, ranks[page]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use splitserve_des::Fabric;
    use splitserve_engine::{EngineConfig, ExecutorDesc};
    use splitserve_storage::LocalDiskStore;

    impl PageRank {
        /// Stage count of the single multi-iteration job.
        fn expected_stages(&self) -> usize {
            3 * self.iterations + 1
        }
    }

    fn run_distributed(w: &PageRank) -> Vec<(u64, f64)> {
        let fabric = Fabric::new();
        let store = Rc::new(LocalDiskStore::new(fabric.clone()));
        let engine = Engine::new(EngineConfig::default(), store);
        let mut sim = Sim::new(1);
        for i in 0..4 {
            let nic = fabric.add_link(1e9, format!("n{i}"));
            let disk = fabric.add_link(1e9, format!("d{i}"));
            engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-{i}"), nic, disk, 8192));
        }
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        engine.submit_job(&mut sim, w.plan().node(), move |_, r| {
            *o.borrow_mut() = Some(collect_partitions::<(u64, f64)>(r.partitions));
        });
        sim.run();
        let mut rows = out.borrow_mut().take().expect("job done");
        rows.sort_by_key(|a| a.0);
        rows
    }

    #[test]
    fn distributed_matches_reference() {
        let w = PageRank::new(500, 2, 4, 7);
        let dist = run_distributed(&w);
        let reference = reference_pagerank(&w);
        // The distributed result only contains pages that received links;
        // compare on the intersection, and every distributed entry must
        // match the reference exactly (same float operations, different
        // order — allow tiny tolerance).
        let ref_map: std::collections::BTreeMap<u64, f64> = reference.into_iter().collect();
        assert!(!dist.is_empty());
        for (page, rank) in &dist {
            let r = ref_map.get(page).expect("page exists in reference");
            assert!(
                (rank - r).abs() < 1e-9,
                "page {page}: distributed {rank} vs reference {r}"
            );
        }
    }

    #[test]
    fn rank_mass_is_plausible() {
        let w = PageRank::new(1_000, 3, 4, 3);
        let dist = run_distributed(&w);
        let total: f64 = dist.iter().map(|(_, r)| r).sum();
        // With damping 0.85 and no dangling-mass redistribution the total
        // stays within (1-d)*n .. slightly above n.
        assert!(total > 0.15 * 1_000.0 * 0.5, "mass too low: {total}");
        assert!(total < 1_500.0, "mass exploded: {total}");
    }

    #[test]
    fn stage_count_matches_formula() {
        let w = PageRank::new(100, 2, 2, 1);
        let g = splitserve_engine::build_stages(w.plan().node());
        assert_eq!(g.len(), w.expected_stages());
    }

    /// The reference as it was first written, over ordered maps.
    fn map_reference(workload: &PageRank) -> Vec<(u64, f64)> {
        let node = workload.links().node();
        let mut adjacency: Vec<(u64, Vec<u64>)> = Vec::new();
        for part in 0..node.num_partitions() {
            let mut ctx = splitserve_engine::TaskContext::empty(Default::default());
            let data = node.compute(&mut ctx, part);
            let rows = data.downcast_ref::<Vec<(u64, Vec<u64>)>>().expect("links type");
            adjacency.extend(rows.iter().cloned());
        }
        let mut ranks: std::collections::BTreeMap<u64, f64> =
            (0..workload.pages).map(|p| (p, 1.0)).collect();
        for _ in 0..workload.iterations {
            let mut contrib = std::collections::BTreeMap::new();
            for (src, dsts) in &adjacency {
                let Some(rank) = ranks.get(src) else { continue };
                let share = rank / dsts.len() as f64;
                for d in dsts {
                    *contrib.entry(*d).or_insert(0.0) += share;
                }
            }
            ranks = contrib
                .into_iter()
                .map(|(k, v)| (k, 1.0 - DAMPING + DAMPING * v))
                .collect();
        }
        ranks.into_iter().collect()
    }

    /// Same pages, same additions in the same order: the dense reference
    /// is the map one bit for bit, pages without in-links left out.
    #[test]
    fn dense_reference_matches_the_map_reference_bit_for_bit() {
        let bits = |ranks: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
            ranks.into_iter().map(|(page, rank)| (page, rank.to_bits())).collect()
        };
        for w in [PageRank::new(5_000, 3, 4, 11), PageRank::new(300, 1, 3, 2)] {
            let dense = bits(reference_pagerank(&w));
            assert!(dense.len() < w.pages as usize, "some page has no in-link");
            assert_eq!(dense, bits(map_reference(&w)));
        }
    }

    #[test]
    fn graph_generation_is_deterministic() {
        let w = PageRank::new(200, 1, 3, 5);
        let a = reference_pagerank(&w);
        let b = reference_pagerank(&w);
        assert_eq!(a, b);
    }
}
