//! Property-based tests for the storage substrate.
//!
//! The slotted page is modelled against a `HashMap<u16, Vec<u8>>`: any
//! sequence of insert/delete operations must leave the page agreeing
//! with the model, and a serialize/deserialize cycle must be the identity.

use proptest::prelude::*;
use std::collections::HashMap;

use trijoin_common::{Cost, SystemParams};
use trijoin_storage::{HeapFile, SimDisk, SlottedPage};

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    Delete(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => prop::collection::vec(any::<u8>(), 1..60).prop_map(Op::Insert),
        1 => any::<usize>().prop_map(Op::Delete),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slotted_page_matches_model(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut page = SlottedPage::new(1024);
        let mut model: HashMap<u16, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert(rec) => {
                    match page.insert(&rec) {
                        Ok(slot) => {
                            prop_assert!(!model.contains_key(&slot),
                                "insert returned a live slot");
                            model.insert(slot, rec);
                        }
                        Err(_) => {
                            // Page reported it doesn't fit; verify that's
                            // honest w.r.t. usable space.
                            prop_assert!(!page.fits(rec.len()));
                        }
                    }
                }
                Op::Delete(i) => {
                    let live: Vec<u16> = model.keys().copied().collect();
                    if live.is_empty() { continue; }
                    let slot = live[i % live.len()];
                    page.delete(slot).unwrap();
                    model.remove(&slot);
                }
            }
            // Page and model agree after every step.
            prop_assert_eq!(page.live_count(), model.len());
            for (&slot, rec) in &model {
                prop_assert_eq!(page.get(slot).unwrap(), &rec[..]);
            }
        }
        // Disk-format round trip preserves everything.
        let restored = SlottedPage::from_bytes(page.bytes().to_vec()).unwrap();
        prop_assert_eq!(restored.live_count(), model.len());
        for (&slot, rec) in &model {
            prop_assert_eq!(restored.get(slot).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn heap_writer_scan_preserves_order_and_io_budget(
        recs in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..50), 0..200)
    ) {
        let cost = Cost::new();
        let params = SystemParams { page_size: 256, ..SystemParams::paper_defaults() };
        let disk = SimDisk::new(&params, cost.clone());
        let mut w = trijoin_storage::heap::HeapWriter::create(&disk);
        for r in &recs {
            w.add(r).unwrap();
        }
        let heap: HeapFile = w.finish().unwrap();
        let write_ios = cost.total().ios;
        prop_assert_eq!(write_ios, heap.num_pages() as u64, "one write per page");

        let mut scanned: Vec<Vec<u8>> = Vec::new();
        for page in 0..heap.num_pages() {
            heap.for_each_page_record(page, |_, rec| scanned.push(rec.to_vec())).unwrap();
        }
        prop_assert_eq!(&scanned, &recs, "scan must preserve append order");
        let scan_ios = cost.total().ios - write_ios;
        prop_assert_eq!(scan_ios, heap.num_pages() as u64, "one read per page");
    }
}
