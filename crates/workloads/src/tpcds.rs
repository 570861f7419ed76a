//! A miniature TPC-DS: a star-schema generator and shape-faithful
//! implementations of the paper's four decision-support queries
//! (Q5, Q16, Q94, Q95 from Spark-SQL-Perf at scale factor 8, Figure 5).
//!
//! Each generated row *represents a block of real TPC-DS rows*: the scan
//! cost per row and the payload padding are calibrated so per-query CPU
//! seconds and shuffle bytes land in the regime of Spark SQL on the
//! paper's 32-core cluster, while the simulation only materializes
//! hundreds of thousands of rows. The queries do real filtering, joining
//! and aggregation; results are asserted non-degenerate.

use splitserve::DriverProgram;
use splitserve_codec::{impl_record, Decode, Encode};
use splitserve_des::Sim;
use splitserve_engine::{collect_partitions, Dataset, Engine};

use crate::gen::{partition_range, partition_rng};

/// One store-channel sale.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSale {
    /// Day-of-year style date key.
    pub(crate) sold_date: u32,
    /// Store surrogate key.
    pub store: u32,
    /// Extended sales price.
    pub(crate) price: f64,
    /// Net profit.
    pub(crate) profit: f64,
    /// Block payload standing in for the remaining TPC-DS columns.
    pub pad: Vec<u8>,
}

/// One web-channel sale.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WebSale {
    /// Sale date key.
    pub(crate) sold_date: u32,
    /// Ship date key.
    pub(crate) ship_date: u32,
    /// Web-site surrogate key.
    pub site: u32,
    /// Order number (join key for Q94/Q95).
    pub order: u64,
    /// Warehouse the line shipped from.
    pub(crate) warehouse: u32,
    /// Customer ship-to address state.
    pub(crate) ship_state: u32,
    /// Extended shipping cost.
    pub(crate) ship_cost: f64,
    /// Net profit.
    pub(crate) profit: f64,
    /// Extended sales price.
    pub(crate) price: f64,
    /// Column-block payload.
    pub pad: Vec<u8>,
}

/// One catalog-channel sale.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CatalogSale {
    /// Ship date key.
    pub(crate) ship_date: u32,
    /// Call-center surrogate key.
    pub(crate) call_center: u32,
    /// Catalog page (Q5's grouping key).
    pub page: u32,
    /// Order number (Q16's join key).
    pub order: u64,
    /// Warehouse the line shipped from.
    pub(crate) warehouse: u32,
    /// Ship-to address state.
    pub(crate) ship_state: u32,
    /// Extended shipping cost.
    pub(crate) ship_cost: f64,
    /// Net profit.
    pub(crate) profit: f64,
    /// Extended sales price.
    pub(crate) price: f64,
    /// Column-block payload.
    pub pad: Vec<u8>,
}

/// A return row (any channel): order key plus amounts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Return {
    /// Returned order number.
    pub order: u64,
    /// Date key of the return.
    pub(crate) returned_date: u32,
    /// Channel-specific grouping key (store/site/page).
    pub(crate) group_key: u32,
    /// Return amount.
    pub(crate) amount: f64,
    /// Net loss.
    pub loss: f64,
}

impl_record!(StoreSale { sold_date, store, price, profit, pad });
impl_record!(WebSale {
    sold_date,
    ship_date,
    site,
    order,
    warehouse,
    ship_state,
    ship_cost,
    profit,
    price,
    pad,
});
impl_record!(CatalogSale {
    ship_date,
    call_center,
    page,
    order,
    warehouse,
    ship_state,
    ship_cost,
    profit,
    price,
    pad,
});
impl_record!(Return { order, returned_date, group_key, amount, loss });

/// Generator parameters for the mini star schema.
#[derive(Debug, Clone)]
pub struct TpcdsTables {
    /// Scale factor (the paper evaluates SF 8).
    pub sf: u32,
    /// Map-side partitions per table.
    pub input_partitions: usize,
    /// Payload bytes per sales row (stands in for the unmodeled columns
    /// of the block of real rows this row represents).
    pub pad_bytes: usize,
    /// CPU seconds charged per generated sales row at scan time
    /// (represents Spark SQL's per-row work over the represented block).
    pub row_cost_secs: f64,
    /// Generator seed.
    pub seed: u64,
}

impl TpcdsTables {
    /// Scale-factor-8 tables partitioned for a 32-core cluster.
    pub(crate) fn sf8(seed: u64) -> Self {
        TpcdsTables {
            sf: 8,
            input_partitions: 64,
            pad_bytes: 2_048,
            row_cost_secs: 3.0e-3,
            seed,
        }
    }

    /// A tiny configuration for tests.
    pub fn tiny(seed: u64) -> Self {
        TpcdsTables {
            sf: 1,
            input_partitions: 4,
            pad_bytes: 16,
            row_cost_secs: 1.0e-6,
            seed,
        }
    }

    /// Rows in `store_sales`.
    pub(crate) fn store_sales_rows(&self) -> u64 {
        16_000 * u64::from(self.sf)
    }
    /// Rows in `web_sales`.
    pub(crate) fn web_sales_rows(&self) -> u64 {
        12_000 * u64::from(self.sf)
    }
    /// Rows in `catalog_sales`.
    pub(crate) fn catalog_sales_rows(&self) -> u64 {
        10_000 * u64::from(self.sf)
    }

    /// The `store_sales` fact table.
    pub fn store_sales(&self) -> Dataset<StoreSale> {
        let rows = self.store_sales_rows();
        let parts = self.input_partitions;
        let seed = self.seed;
        let pad = self.pad_bytes;
        Dataset::generate(parts, move |p| {
            let (start, end) = partition_range(rows, parts, p);
            let mut rng = partition_rng(seed ^ 0x55, p);
            (start..end)
                .map(|_| StoreSale {
                    sold_date: rng.gen_range(0..365),
                    store: rng.gen_range(0..120),
                    price: rng.gen_range(1.0..500.0),
                    profit: rng.gen_range(-50.0..120.0),
                    pad: vec![0xa5; pad],
                })
                .collect()
        })
    }

    /// The `web_sales` fact table.
    pub(crate) fn web_sales(&self) -> Dataset<WebSale> {
        let rows = self.web_sales_rows();
        let parts = self.input_partitions;
        let seed = self.seed;
        let pad = self.pad_bytes;
        Dataset::generate(parts, move |p| {
            let (start, end) = partition_range(rows, parts, p);
            let mut rng = partition_rng(seed ^ 0x77, p);
            (start..end)
                .map(|i| {
                    let order = i / 3; // ~3 line items per order
                    WebSale {
                        sold_date: rng.gen_range(0..365),
                        ship_date: rng.gen_range(0..365),
                        site: rng.gen_range(0..30),
                        order,
                        warehouse: rng.gen_range(0..15),
                        ship_state: rng.gen_range(0..50),
                        ship_cost: rng.gen_range(0.5..40.0),
                        profit: rng.gen_range(-30.0..90.0),
                        price: rng.gen_range(1.0..400.0),
                        pad: vec![0xb6; pad],
                    }
                })
                .collect()
        })
    }

    /// The `catalog_sales` fact table.
    pub(crate) fn catalog_sales(&self) -> Dataset<CatalogSale> {
        let rows = self.catalog_sales_rows();
        let parts = self.input_partitions;
        let seed = self.seed;
        let pad = self.pad_bytes;
        Dataset::generate(parts, move |p| {
            let (start, end) = partition_range(rows, parts, p);
            let mut rng = partition_rng(seed ^ 0x99, p);
            (start..end)
                .map(|i| {
                    let order = i / 2;
                    CatalogSale {
                        ship_date: rng.gen_range(0..365),
                        call_center: rng.gen_range(0..8),
                        page: rng.gen_range(0..300),
                        order,
                        warehouse: rng.gen_range(0..15),
                        ship_state: rng.gen_range(0..50),
                        ship_cost: rng.gen_range(0.5..60.0),
                        profit: rng.gen_range(-40.0..100.0),
                        price: rng.gen_range(1.0..600.0),
                        pad: vec![0xc7; pad],
                    }
                })
                .collect()
        })
    }

    fn returns(&self, sales_rows: u64, tag: u64, orders_div: u64) -> Dataset<Return> {
        let rows = sales_rows / 12; // ~8% return rate
        let parts = self.input_partitions;
        let seed = self.seed;
        Dataset::generate(parts, move |p| {
            let (start, end) = partition_range(rows, parts, p);
            let mut rng = partition_rng(seed ^ tag, p);
            (start..end)
                .map(|_| Return {
                    order: rng.gen_range(0..sales_rows / orders_div.max(1)),
                    returned_date: rng.gen_range(0..365),
                    group_key: rng.gen_range(0..300),
                    amount: rng.gen_range(1.0..300.0),
                    loss: rng.gen_range(0.0..80.0),
                })
                .collect()
        })
    }

    /// `store_returns`.
    pub(crate) fn store_returns(&self) -> Dataset<Return> {
        self.returns(self.store_sales_rows(), 0x111, 1)
    }
    /// `web_returns` (order-keyed, matching `web_sales.order`).
    pub(crate) fn web_returns(&self) -> Dataset<Return> {
        self.returns(self.web_sales_rows(), 0x222, 3)
    }
    /// `catalog_returns` (order-keyed, matching `catalog_sales.order`).
    pub(crate) fn catalog_returns(&self) -> Dataset<Return> {
        self.returns(self.catalog_sales_rows(), 0x333, 2)
    }
}

/// The four queries of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpcdsQuery {
    /// Channel rollup: sales/returns/profit per channel across all three
    /// fact tables — the widest scan, big aggregation.
    Q5,
    /// Catalog shipping report: orders shipped from ≥2 warehouses with no
    /// returns (EXISTS + NOT EXISTS anti-join pattern).
    Q16,
    /// Web shipping report: Q16's pattern on `web_sales`/`web_returns`.
    Q94,
    /// Like Q94 but the order *must* have a return — forces grouping the
    /// full fact table twice; the heaviest shuffler.
    Q95,
}

impl std::fmt::Display for TpcdsQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TpcdsQuery::Q5 => f.write_str("Q5"),
            TpcdsQuery::Q16 => f.write_str("Q16"),
            TpcdsQuery::Q94 => f.write_str("Q94"),
            TpcdsQuery::Q95 => f.write_str("Q95"),
        }
    }
}

/// Per-order tagged record for the shipping-report queries.
#[derive(Debug, Clone, PartialEq)]
enum OrderItem {
    /// A qualifying sale line: (warehouse, ship_cost, profit, payload).
    Sale(u32, f64, f64, Vec<u8>),
    /// The order has a return.
    Returned,
}

impl Encode for OrderItem {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OrderItem::Sale(w, sc, pr, pad) => {
                0u32.encode(out);
                w.encode(out);
                sc.encode(out);
                pr.encode(out);
                pad.encode(out);
            }
            OrderItem::Returned => 1u32.encode(out),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            OrderItem::Sale(w, sc, pr, pad) => {
                0u32.encoded_len()
                    + w.encoded_len()
                    + sc.encoded_len()
                    + pr.encoded_len()
                    + pad.encoded_len()
            }
            OrderItem::Returned => 1u32.encoded_len(),
        }
    }
}

impl Decode for OrderItem {
    fn decode(input: &mut &[u8]) -> splitserve_codec::Result<Self> {
        Ok(match u32::decode(input)? {
            0 => OrderItem::Sale(
                Decode::decode(input)?,
                Decode::decode(input)?,
                Decode::decode(input)?,
                Decode::decode(input)?,
            ),
            1 => OrderItem::Returned,
            i => return Err(splitserve_codec::Error::InvalidVariant(i.into())),
        })
    }
}

/// The final answer row of any of the four queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryAnswer {
    /// Orders (Q16/94/95) or groups (Q5) contributing.
    pub count: u64,
    /// Summed ship cost (Q16/94/95) or sales (Q5).
    pub(crate) total_a: f64,
    /// Summed net profit/loss.
    pub(crate) total_b: f64,
}

impl_record!(QueryAnswer { count, total_a, total_b });

/// A runnable TPC-DS query workload.
#[derive(Debug, Clone)]
pub struct TpcdsLoad {
    /// Which query.
    pub query: TpcdsQuery,
    /// Table generator.
    pub tables: TpcdsTables,
    /// Reduce-side width (Spark SQL's `spark.sql.shuffle.partitions`,
    /// default 200 — the paper runs the suite with defaults).
    pub shuffle_partitions: usize,
    /// Cluster cores this run is sized for (reporting only).
    pub parallelism: usize,
}

impl TpcdsLoad {
    /// The paper's setup: SF 8 on 32 cores, 200 shuffle partitions.
    pub fn paper_config(query: TpcdsQuery, seed: u64) -> Self {
        TpcdsLoad {
            query,
            tables: TpcdsTables::sf8(seed),
            shuffle_partitions: 200,
            parallelism: 32,
        }
    }

    /// A small configuration for tests.
    pub fn tiny(query: TpcdsQuery, seed: u64) -> Self {
        TpcdsLoad {
            query,
            tables: TpcdsTables::tiny(seed),
            shuffle_partitions: 8,
            parallelism: 4,
        }
    }

    /// Builds the query plan ending in a single [`QueryAnswer`] partition.
    pub fn plan(&self) -> Dataset<(u64, QueryAnswer)> {
        match self.query {
            TpcdsQuery::Q5 => self.q5(),
            TpcdsQuery::Q16 => self.shipping_report(Channel::Catalog),
            TpcdsQuery::Q94 => self.shipping_report(Channel::WebNoReturns),
            TpcdsQuery::Q95 => self.shipping_report(Channel::WebWithReturns),
        }
    }

    /// Q5: per-channel, per-group sales/returns/profit rollup.
    fn q5(&self) -> Dataset<(u64, QueryAnswer)> {
        let cost = self.tables.row_cost_secs;
        let sp = self.shuffle_partitions;
        // channel id 1/2/3 = store/web/catalog; group key offsets keep the
        // channels' groups distinct.
        let store = self.tables.store_sales().map_with_cost(
            |s| {
                (
                    1_000_000 + s.store as u64,
                    (1u64, s.price, s.profit, s.pad.clone()),
                )
            },
            Some(cost),
        );
        let web = self.tables.web_sales().map_with_cost(
            |s| {
                (
                    2_000_000 + s.site as u64,
                    (1u64, s.price, s.profit, s.pad.clone()),
                )
            },
            Some(cost),
        );
        let catalog = self.tables.catalog_sales().map_with_cost(
            |s| {
                (
                    3_000_000 + s.page as u64,
                    (1u64, s.price, s.profit, s.pad.clone()),
                )
            },
            Some(cost),
        );
        let returns = self
            .tables
            .store_returns()
            .union(&self.tables.web_returns())
            .union(&self.tables.catalog_returns())
            .map(|r| {
                (
                    1_000_000 + r.group_key as u64,
                    (0u64, -r.amount, -r.loss, Vec::new()),
                )
            });
        let per_group = store
            .union(&web)
            .union(&catalog)
            .union(&returns)
            .reduce_by_key(sp, |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2, Vec::new()));
        // Roll the per-group rows up to one channel-level answer.
        per_group
            .map(|(k, (n, sales, profit, _))| {
                let channel = k / 1_000_000;
                (
                    channel,
                    QueryAnswer {
                        count: *n,
                        total_a: *sales,
                        total_b: *profit,
                    },
                )
            })
            .reduce_by_key(1, |a, b| QueryAnswer {
                count: a.count + b.count,
                total_a: a.total_a + b.total_a,
                total_b: a.total_b + b.total_b,
            })
    }

    /// The Q16/Q94/Q95 template: group per order, apply the EXISTS /
    /// NOT-EXISTS predicates, aggregate.
    fn shipping_report(&self, channel: Channel) -> Dataset<(u64, QueryAnswer)> {
        let cost = self.tables.row_cost_secs;
        let sp = self.shuffle_partitions;
        // The scan cost covers *every* row (Spark SQL reads the whole
        // table); only survivors of the date/state predicates carry their
        // payload into the shuffle.
        let sales: Dataset<(u64, OrderItem)> = match channel {
            Channel::Catalog => self.tables.catalog_sales().map_partitions(move |ctx, rows| {
                ctx.charge_secs(rows.len() as f64 * cost);
                rows.iter()
                    .filter(|s| s.ship_date < 60 && s.ship_state < 10)
                    .map(|s| {
                        (
                            s.order,
                            OrderItem::Sale(s.warehouse, s.ship_cost, s.profit, s.pad.clone()),
                        )
                    })
                    .collect()
            }),
            Channel::WebNoReturns | Channel::WebWithReturns => {
                self.tables.web_sales().map_partitions(move |ctx, rows| {
                    ctx.charge_secs(rows.len() as f64 * cost);
                    rows.iter()
                        .filter(|s| s.ship_date < 60 && s.ship_state < 10)
                        .map(|s| {
                            (
                                s.order,
                                OrderItem::Sale(s.warehouse, s.ship_cost, s.profit, s.pad.clone()),
                            )
                        })
                        .collect()
                })
            }
        };
        let returns: Dataset<(u64, OrderItem)> = match channel {
            Channel::Catalog => self.tables.catalog_returns(),
            Channel::WebNoReturns | Channel::WebWithReturns => self.tables.web_returns(),
        }
        .map(|r| (r.order, OrderItem::Returned));
        let want_returned = matches!(channel, Channel::WebWithReturns);

        sales
            .union(&returns)
            .group_by_key(sp)
            .flat_map(move |(_, items)| {
                let returned = items.iter().any(|i| matches!(i, OrderItem::Returned));
                let mut warehouses = std::collections::BTreeSet::new();
                let mut ship = 0.0;
                let mut profit = 0.0;
                let mut lines = 0u64;
                for item in items {
                    if let OrderItem::Sale(w, sc, pr, _) = item {
                        warehouses.insert(w);
                        ship += sc;
                        profit += pr;
                        lines += 1;
                    }
                }
                // EXISTS: shipped from more than one warehouse.
                // Q16/Q94: NOT EXISTS returns; Q95: EXISTS returns.
                (lines > 0 && warehouses.len() >= 2 && returned == want_returned).then_some((
                    0u64,
                    QueryAnswer {
                        count: 1,
                        total_a: ship,
                        total_b: profit,
                    },
                ))
            })
            .reduce_by_key(1, |a, b| QueryAnswer {
                count: a.count + b.count,
                total_a: a.total_a + b.total_a,
                total_b: a.total_b + b.total_b,
            })
    }
}

#[derive(Debug, Clone, Copy)]
enum Channel {
    Catalog,
    WebNoReturns,
    WebWithReturns,
}

impl DriverProgram for TpcdsLoad {
    fn name(&self) -> String {
        format!("TPC-DS {} (SF {})", self.query, self.tables.sf)
    }

    fn parallelism(&self) -> usize {
        self.parallelism
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let query = self.query;
        engine.submit_job(sim, self.plan().node(), move |sim, out| {
            let rows = collect_partitions::<(u64, QueryAnswer)>(out.partitions);
            match query {
                TpcdsQuery::Q5 => {
                    assert_eq!(rows.len(), 3, "Q5 reports all three channels");
                    assert!(rows.iter().all(|(_, a)| a.count > 0));
                }
                _ => {
                    assert!(rows.len() <= 1, "shipping reports are one row");
                }
            }
            done(sim);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve_des::Fabric;
    use splitserve_engine::{EngineConfig, ExecutorDesc};
    use splitserve_storage::LocalDiskStore;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn run_query(load: &TpcdsLoad) -> Vec<(u64, QueryAnswer)> {
        let fabric = Fabric::new();
        let store = Rc::new(LocalDiskStore::new(fabric.clone()));
        let engine = Engine::new(EngineConfig::default(), store);
        let mut sim = Sim::new(2);
        for i in 0..4 {
            let nic = fabric.add_link(1e9, format!("n{i}"));
            let disk = fabric.add_link(1e9, format!("d{i}"));
            engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-{i}"), nic, disk, 8192));
        }
        let out = Rc::new(RefCell::new(None));
        let o = Rc::clone(&out);
        engine.submit_job(&mut sim, load.plan().node(), move |_, r| {
            *o.borrow_mut() = Some(collect_partitions::<(u64, QueryAnswer)>(r.partitions));
        });
        sim.run();
        let rows = out.borrow_mut().take().expect("query completed");
        rows
    }

    #[test]
    fn q5_covers_three_channels() {
        let mut rows = run_query(&TpcdsLoad::tiny(TpcdsQuery::Q5, 3));
        rows.sort_by_key(|(c, _)| *c);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[2].0, 3);
        let t = TpcdsTables::tiny(3);
        let total: u64 = rows.iter().map(|(_, a)| a.count).sum();
        assert_eq!(
            total,
            t.store_sales_rows() + t.web_sales_rows() + t.catalog_sales_rows(),
            "every sales row lands in exactly one channel group"
        );
    }

    #[test]
    fn q16_counts_multi_warehouse_unreturned_orders() {
        let rows = run_query(&TpcdsLoad::tiny(TpcdsQuery::Q16, 5));
        assert_eq!(rows.len(), 1);
        let a = rows[0].1;
        assert!(a.count > 0, "some qualifying orders exist");
        assert!(a.total_a > 0.0, "ship cost accumulates");
        // Cross-check against a sequential evaluation of the predicate.
        let load = TpcdsLoad::tiny(TpcdsQuery::Q16, 5);
        let expected = sequential_shipping(&load, false, true);
        assert_eq!(a.count, expected);
    }

    #[test]
    fn q94_and_q95_partition_the_multi_warehouse_orders() {
        // Q94 (no returns) and Q95 (with returns) counts must sum to the
        // total multi-warehouse filtered web orders.
        let first_count = |rows: Vec<(u64, QueryAnswer)>| {
            rows.first().map(|(_, a)| a.count).unwrap_or(0)
        };
        let q94 = first_count(run_query(&TpcdsLoad::tiny(TpcdsQuery::Q94, 7)));
        let q95 = first_count(run_query(&TpcdsLoad::tiny(TpcdsQuery::Q95, 7)));
        assert!(q94 > 0);
        let load = TpcdsLoad::tiny(TpcdsQuery::Q94, 7);
        let no_ret = sequential_shipping(&load, false, false);
        let with_ret = sequential_shipping(&load, true, false);
        assert_eq!(q94, no_ret);
        assert_eq!(q95, with_ret);
    }

    /// Sequential reference for the shipping-report predicate, over the
    /// catalog tables (Q16) or the web tables (Q94/Q95).
    fn sequential_shipping(load: &TpcdsLoad, want_returned: bool, catalog: bool) -> u64 {
        use std::collections::{BTreeMap, BTreeSet};
        let mut orders: BTreeMap<u64, (BTreeSet<u32>, bool)> = BTreeMap::new();
        if catalog {
            let sales = load.tables.catalog_sales();
            let node = sales.node();
            for p in 0..node.num_partitions() {
                let mut ctx = splitserve_engine::TaskContext::empty(Default::default());
                let data = node.compute(&mut ctx, p);
                for s in data.downcast_ref::<Vec<CatalogSale>>().expect("catalog sales") {
                    if s.ship_date < 60 && s.ship_state < 10 {
                        orders.entry(s.order).or_default().0.insert(s.warehouse);
                    }
                }
            }
        } else {
            let web = load.tables.web_sales();
            let node = web.node();
            for p in 0..node.num_partitions() {
                let mut ctx = splitserve_engine::TaskContext::empty(Default::default());
                let data = node.compute(&mut ctx, p);
                for s in data.downcast_ref::<Vec<WebSale>>().expect("web sales") {
                    if s.ship_date < 60 && s.ship_state < 10 {
                        orders.entry(s.order).or_default().0.insert(s.warehouse);
                    }
                }
            }
        }
        let rets = if catalog {
            load.tables.catalog_returns()
        } else {
            load.tables.web_returns()
        };
        let rnode = rets.node();
        for p in 0..rnode.num_partitions() {
            let mut ctx = splitserve_engine::TaskContext::empty(Default::default());
            let data = rnode.compute(&mut ctx, p);
            for r in data.downcast_ref::<Vec<Return>>().expect("returns") {
                if let Some(o) = orders.get_mut(&r.order) {
                    o.1 = true;
                }
            }
        }
        orders
            .values()
            .filter(|(w, ret)| w.len() >= 2 && *ret == want_returned)
            .count() as u64
    }

    #[test]
    fn q95_shuffles_more_than_q16() {
        // Q95 groups the (larger) web_sales table and must move more
        // bytes than Q16 over catalog_sales at the same scale.
        let shuffle_bytes = |q| {
            let fabric = Fabric::new();
            let store = Rc::new(LocalDiskStore::new(fabric.clone()));
            let engine = Engine::new(EngineConfig::default(), store);
            let mut sim = Sim::new(2);
            for i in 0..4 {
                let nic = fabric.add_link(1e9, format!("n{i}"));
                let disk = fabric.add_link(1e9, format!("d{i}"));
                engine.register_executor(
                    &mut sim,
                    ExecutorDesc::vm(format!("e-{i}"), nic, disk, 8192),
                );
            }
            let load = TpcdsLoad::tiny(q, 11);
            let done = Rc::new(RefCell::new(false));
            let d = Rc::clone(&done);
            load.submit(&mut sim, &engine, Box::new(move |_| *d.borrow_mut() = true));
            sim.run();
            assert!(*done.borrow());
            engine
                .completed_job_metrics()
                .iter()
                .map(|m| m.shuffle_bytes_written)
                .sum::<u64>()
        };
        let q16 = shuffle_bytes(TpcdsQuery::Q16);
        let q95 = shuffle_bytes(TpcdsQuery::Q95);
        assert!(q95 > q16, "Q95 {q95} must out-shuffle Q16 {q16}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = run_query(&TpcdsLoad::tiny(TpcdsQuery::Q5, 9));
        let b = run_query(&TpcdsLoad::tiny(TpcdsQuery::Q5, 9));
        assert_eq!(a, b);
    }
}
