//! The heap's free-space map places every record exactly where a
//! page-by-page first fit would.
//!
//! The reference model keeps its own copy of every page and places a
//! record by walking the pages newest first and asking each one
//! `SlottedPage::can_insert` — the placement rule the map replaces.

use std::collections::HashMap;
use std::sync::Arc;

use instant_common::TupleId;
use instant_storage::page::PAGE_PAYLOAD;
use instant_storage::slotted::SlottedPage;
use instant_storage::{BufferPool, DiskManager, HeapFile, SecurePolicy};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        len: usize,
        cap_extra: usize,
        fill: u8,
    },
    Update {
        pick: usize,
        len: usize,
        fill: u8,
    },
    Delete {
        pick: usize,
    },
    Vacuum,
    /// Flush, drop every cached frame and reattach the heap: the map
    /// starts over with every page unknown.
    Attach,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1usize..900, 0usize..400, any::<u8>())
            .prop_map(|(len, cap_extra, fill)| Op::Insert { len, cap_extra, fill }),
        2 => (any::<prop::sample::Index>(), 1usize..900, any::<u8>())
            .prop_map(|(p, len, fill)| Op::Update { pick: p.index(1 << 20), len, fill }),
        3 => any::<prop::sample::Index>().prop_map(|p| Op::Delete { pick: p.index(1 << 20) }),
        1 => Just(Op::Vacuum),
        1 => Just(Op::Attach),
    ]
}

/// Page-by-page first fit over private page copies.
#[derive(Default)]
struct Model {
    pages: Vec<Vec<u8>>,
}

impl Model {
    fn insert(&mut self, bytes: &[u8], cap: usize) -> (usize, u16) {
        for i in (0..self.pages.len()).rev() {
            let mut sp = SlottedPage::new(&mut self.pages[i]);
            if sp.can_insert(cap) {
                return (i, sp.insert(bytes, cap).unwrap().0);
            }
        }
        let mut buf = vec![0u8; PAGE_PAYLOAD];
        let slot = SlottedPage::init(&mut buf).insert(bytes, cap).unwrap();
        self.pages.push(buf);
        (self.pages.len() - 1, slot.0)
    }

    fn page(&mut self, i: usize) -> SlottedPage<&mut [u8]> {
        SlottedPage::new(&mut self.pages[i])
    }
}

fn run(ops: Vec<Op>, policy: SecurePolicy) -> Result<(), TestCaseError> {
    let disk = Arc::new(DiskManager::temp("heap-placement").unwrap());
    // A few frames only, so pages are evicted and faulted back in.
    let pool = Arc::new(BufferPool::new(disk, 4));
    let mut heap = HeapFile::create(pool.clone(), policy);
    let mut model = Model::default();
    // Live tuples: id -> (capacity, current bytes).
    let mut live: Vec<TupleId> = Vec::new();
    let mut records: HashMap<TupleId, (usize, Vec<u8>)> = HashMap::new();
    for op in ops {
        match op {
            Op::Insert {
                len,
                cap_extra,
                fill,
            } => {
                let bytes = vec![fill; len];
                let cap = len + cap_extra;
                let tid = heap.insert(&bytes, cap).unwrap();
                let (page, slot) = model.insert(&bytes, cap);
                let ids = heap.page_ids();
                prop_assert_eq!(ids.len(), model.pages.len());
                prop_assert_eq!(tid.page, ids[page], "page of {:?}", tid);
                prop_assert_eq!(tid.slot.0, slot, "slot of {:?}", tid);
                live.push(tid);
                records.insert(tid, (cap, bytes));
            }
            Op::Update { pick, len, fill } if !live.is_empty() => {
                let tid = live[pick % live.len()];
                let cap = records[&tid].0;
                let bytes = vec![fill; len.min(cap)];
                heap.update(tid, &bytes).unwrap();
                let page = heap.page_ids().iter().position(|p| *p == tid.page).unwrap();
                model.page(page).update(tid.slot, &bytes, policy).unwrap();
                records.insert(tid, (cap, bytes));
            }
            Op::Delete { pick } if !live.is_empty() => {
                let tid = live.swap_remove(pick % live.len());
                heap.delete(tid).unwrap();
                let page = heap.page_ids().iter().position(|p| *p == tid.page).unwrap();
                model.page(page).delete(tid.slot, policy).unwrap();
                records.remove(&tid);
            }
            Op::Vacuum => {
                let reclaimed = heap.vacuum().unwrap();
                let expected: usize = (0..model.pages.len())
                    .map(|i| model.page(i).compact())
                    .sum();
                prop_assert_eq!(reclaimed, expected);
            }
            Op::Attach => {
                pool.clear().unwrap();
                heap = HeapFile::attach(pool.clone(), heap.page_ids(), policy);
            }
            Op::Update { .. } | Op::Delete { .. } => {}
        }
    }
    prop_assert_eq!(heap.live_count().unwrap(), live.len());
    for (tid, (_, bytes)) in &records {
        prop_assert_eq!(&heap.read(*tid).unwrap(), bytes);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn free_space_map_places_like_first_fit(ops in prop::collection::vec(arb_op(), 1..160)) {
        run(ops.clone(), SecurePolicy::Overwrite)?;
        run(ops, SecurePolicy::Naive)?;
    }
}
