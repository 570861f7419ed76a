//! The billing ledger: every dollar the simulated tenant spends lands here.

use std::collections::BTreeMap;
use std::fmt;

/// What a charge was for. Categories mirror the cost components the paper
/// reports: VM time, Lambda time, Lambda invocations, and storage-service
/// requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// EC2 instance run time.
    VmCompute,
    /// Lambda GB-seconds.
    LambdaCompute,
    /// Lambda per-request fee.
    LambdaInvocation,
    /// S3 PUT/POST/LIST requests.
    S3Put,
    /// S3 GET requests.
    S3Get,
    /// SQS send/receive requests.
    SqsRequest,
    /// Storage capacity charges (S3/EBS GB-months, prorated).
    Storage,
    /// Anything else.
    Other,
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::VmCompute => "vm-compute",
            Category::LambdaCompute => "lambda-compute",
            Category::LambdaInvocation => "lambda-invocation",
            Category::S3Put => "s3-put",
            Category::S3Get => "s3-get",
            Category::SqsRequest => "sqs-request",
            Category::Storage => "storage",
            Category::Other => "other",
        };
        f.write_str(s)
    }
}

/// Spend so far, per category. A charge is folded into its category's
/// total and not kept: a run makes one per storage request, and nothing
/// reads them back one by one.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    totals: BTreeMap<Category, f64>,
}

impl Ledger {
    /// An empty ledger.
    pub(crate) fn new() -> Self {
        Ledger::default()
    }

    /// Records a charge.
    ///
    /// # Panics
    ///
    /// Panics if `usd` is negative or not finite — refunds don't exist in
    /// this model and NaNs would silently poison totals.
    pub(crate) fn charge(&mut self, category: Category, usd: f64) {
        assert!(usd.is_finite() && usd >= 0.0, "invalid charge: {usd}");
        *self.totals.entry(category).or_insert(0.0) += usd;
    }

    /// Total spend across all categories.
    pub(crate) fn total(&self) -> f64 {
        self.totals.values().sum()
    }

    /// Spend in one category.
    pub(crate) fn total_for(&self, category: Category) -> f64 {
        self.totals.get(&category).copied().unwrap_or(0.0)
    }

    /// Per-category rollup, in category order.
    pub(crate) fn by_category(&self) -> Vec<(Category, f64)> {
        self.totals.iter().map(|(c, v)| (*c, *v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_per_category() {
        let mut l = Ledger::new();
        l.charge(Category::VmCompute, 1.0);
        l.charge(Category::VmCompute, 2.0);
        l.charge(Category::S3Get, 0.5);
        assert_eq!(l.total_for(Category::VmCompute), 3.0);
        assert_eq!(l.total_for(Category::S3Get), 0.5);
        assert_eq!(l.total_for(Category::SqsRequest), 0.0);
        assert_eq!(l.total(), 3.5);
    }

    #[test]
    fn rollup_is_ordered_and_complete() {
        let mut l = Ledger::new();
        l.charge(Category::S3Put, 0.1);
        l.charge(Category::LambdaCompute, 0.2);
        let roll = l.by_category();
        assert_eq!(roll.len(), 2);
        assert_eq!(roll[0].0, Category::LambdaCompute);
        assert_eq!(roll[1].0, Category::S3Put);
    }

    #[test]
    #[should_panic(expected = "invalid charge")]
    fn negative_charge_panics() {
        Ledger::new().charge(Category::Other, -1.0);
    }

    #[test]
    fn empty_ledger_reports_zero() {
        let l = Ledger::new();
        assert_eq!(l.total(), 0.0);
        assert!(l.by_category().is_empty());
    }
}
