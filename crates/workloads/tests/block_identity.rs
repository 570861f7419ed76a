//! Wire-identity pins for shuffles that carry byte payloads.
//!
//! The constants are xxhash64 digests of every map-output block, taken
//! before the codec's slice hooks existed (commit 0d43f73). Virtual time,
//! `charge_ser`/`charge_deser`, store bytes and fabric flows are all
//! functions of these bytes, so a codec or shuffle change that keeps the
//! digests keeps the model.

use splitserve_codec::Decode;
use splitserve_engine::{input_shuffles, Dataset, TaskContext, WorkModel};
use splitserve_rt::hash::assert_pinned;
use splitserve_workloads::{CloudSort, StoreSale, TpcdsTables};

/// How many `(K, V)` records `block` decodes to, consuming all of it. The
/// pins frame every block with this count; the engine's buckets carried it
/// when they were taken and no longer do.
fn records_in<K: Decode, V: Decode>(mut block: &[u8]) -> u64 {
    let mut n = 0;
    while !block.is_empty() {
        splitserve_codec::from_bytes_seq::<(K, V)>(&mut block).expect("block decodes");
        n += 1;
    }
    n
}

/// Runs the map side of `shuffled`'s single shuffle by hand and returns
/// the blocks in map-task, then reduce-partition order, each framed by its
/// length and record count (native-endian, as `Hasher::write_u64` fed them
/// when the pins were taken), plus the unframed payload byte count.
fn framed_map_output<T: Clone + Send + Sync + 'static>(
    shuffled: &Dataset<T>,
    records_in: fn(&[u8]) -> u64,
) -> (Vec<u8>, u64) {
    let deps = input_shuffles(&shuffled.node());
    assert_eq!(deps.len(), 1, "one shuffle expected");
    let dep = &deps[0];
    let mut framed = Vec::new();
    let mut total = 0u64;
    for m in 0..dep.parent.num_partitions() {
        let mut ctx = TaskContext::empty(WorkModel::default());
        let data = dep.parent.compute(&mut ctx, m);
        for b in (dep.partitioner)(&mut ctx, data) {
            framed.extend_from_slice(&(b.bytes.len() as u64).to_ne_bytes());
            framed.extend_from_slice(&records_in(&b.bytes).to_ne_bytes());
            framed.extend_from_slice(&b.bytes);
            total += b.bytes.len() as u64;
        }
    }
    (framed, total)
}

#[test]
fn cloudsort_range_blocks_are_wire_identical() {
    let (framed, bytes) = framed_map_output(&CloudSort::new(20_000, 8, 5).plan(), records_in::<u64, Vec<u8>>);
    assert_eq!(bytes, CLOUDSORT_BYTES);
    assert_pinned("cloudsort range blocks", &framed, CLOUDSORT_DIGEST);
}

#[test]
fn tpcds_store_sale_blocks_are_wire_identical() {
    let tables = TpcdsTables {
        pad_bytes: 257,
        ..TpcdsTables::tiny(9)
    };
    let by_store = tables.store_sales().key_by(|s| s.store).group_by_key(4);
    let (framed, bytes) = framed_map_output(&by_store, records_in::<u32, StoreSale>);
    assert_eq!(bytes, STORE_SALE_BYTES);
    assert_pinned("tpcds store_sale blocks", &framed, STORE_SALE_DIGEST);
}

const CLOUDSORT_BYTES: u64 = 2_910_699;
const CLOUDSORT_DIGEST: u64 = 0xe9b1_9ee1_32cc_ed38;
const STORE_SALE_BYTES: u64 = 8_570_335;
const STORE_SALE_DIGEST: u64 = 0xa447_fd40_f566_d92a;
