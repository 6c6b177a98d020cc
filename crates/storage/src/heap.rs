//! Heap file: the record store for one table.
//!
//! A heap file is a set of slotted pages reached through the buffer pool.
//! Its API is shaped by degradation:
//!
//! * `insert(bytes, reserve_cap)` reserves the life-cycle-maximum capacity so
//!   later `update`s (degradation rewrites) never relocate the tuple;
//! * `update` / `delete` take a [`SecurePolicy`] so degradation steps can
//!   guarantee physical erasure of the finer state;
//! * `vacuum` compacts pages and scrubs residue left by naive deletes;
//! * `raw_image` hands the forensic scanner the attacker's view.
//!
//! # Free-space map
//!
//! Beside the page list, under the same rank-340 mutex, the heap keeps an
//! in-memory free-space map: each page's contiguous free bytes, or
//! *unknown*. Placement is first fit over the pages, newest first, asking
//! [`slotted::fits`](crate::slotted::fits) of the recorded bytes — the
//! same question [`SlottedPage::can_insert`] asks of the page — so an
//! insert reads and dirties only the page it lands on. Invariants:
//!
//! * A known entry equals the page's contiguous free bytes. Only
//!   `SlottedPage::insert` and `SlottedPage::compact` change that value
//!   (`update` rewrites inside a slot's reserved capacity, `delete`
//!   leaves its space to the next compaction). `insert` records the
//!   value it leaves behind before releasing the mutex, and `vacuum`
//!   marks each page it compacts unknown again after compacting it.
//! * An unknown page is probed once, under its read latch, the first time
//!   an insert's walk reaches it. Pages reattached after a restart start
//!   unknown, so the map is rebuilt lazily from the pages themselves.
//!
//! Placement is therefore exactly the first fit the page-by-page walk
//! would choose. Scans, reads and `live_count` take only read latches,
//! so they never dirty a page they merely look at.

use std::sync::Arc;

use parking_lot::Mutex;

use instant_common::{PageId, Result, TupleId};

use crate::buffer::BufferPool;
use crate::page::PAGE_PAYLOAD;
use crate::secure::SecurePolicy;
use crate::slotted::{fits, SlottedPage};

/// The page list and its free-space map; see the module docs.
struct Pages {
    /// Pages owned by this heap, in allocation order.
    ids: Vec<PageId>,
    /// `free[i]`: contiguous free bytes of `ids[i]`, `None` until probed.
    free: Vec<Option<usize>>,
}

/// A record store over slotted pages.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    pages: Mutex<Pages>, // lock-rank: 340
    policy: SecurePolicy,
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("pages", &self.pages.lock().ids.len())
            .field("policy", &self.policy)
            .finish()
    }
}

impl HeapFile {
    /// Create an empty heap over `pool` with the given deletion policy.
    pub fn create(pool: Arc<BufferPool>, policy: SecurePolicy) -> HeapFile {
        HeapFile::attach(pool, Vec::new(), policy)
    }

    /// Reattach a heap whose pages are already on disk (after restart).
    /// Their free space is unknown until an insert first probes them.
    pub fn attach(pool: Arc<BufferPool>, pages: Vec<PageId>, policy: SecurePolicy) -> HeapFile {
        let free = vec![None; pages.len()];
        HeapFile {
            pool,
            pages: Mutex::ranked(340, Pages { ids: pages, free }),
            policy,
        }
    }

    pub fn policy(&self) -> SecurePolicy {
        self.policy
    }

    /// The page ids owned by this heap (for catalog persistence).
    pub fn page_ids(&self) -> Vec<PageId> {
        self.pages.lock().ids.clone()
    }

    /// Largest record capacity a single page can hold.
    pub fn max_record_cap() -> usize {
        // payload minus slotted header (6) and one slot entry (6)
        PAGE_PAYLOAD - 12
    }

    /// Insert `bytes`, reserving `cap` bytes (`cap >= bytes.len()`).
    pub fn insert(&self, bytes: &[u8], cap: usize) -> Result<TupleId> {
        assert!(cap >= bytes.len());
        if cap > Self::max_record_cap() {
            return Err(instant_common::Error::Capacity(format!(
                "record capacity {cap}B exceeds page maximum {}B",
                Self::max_record_cap()
            )));
        }
        let mut pages = self.pages.lock();
        // First fit over the free-space map, newest page first (most
        // likely space).
        for i in (0..pages.ids.len()).rev() {
            let pid = pages.ids[i];
            let free = match pages.free[i] {
                Some(free) => free,
                None => {
                    // lint:allow(L102, a page is probed only while its map entry is unknown (after attach or vacuum), under its read latch; a fault may write back one dirty victim)
                    let free = self.pool.with_page(pid, |page| {
                        SlottedPage::view(page.payload()).contiguous_free()
                    })?;
                    pages.free[i] = Some(free);
                    free
                }
            };
            if !fits(free, cap) {
                continue;
            }
            // lint:allow(L102, the chosen page is written under the page-list lock so its map entry is updated atomically with it; a fault may write back one dirty victim)
            let (slot, free) = self.pool.with_page_mut(pid, |page| {
                let mut sp = SlottedPage::new(page.payload_mut());
                sp.insert(bytes, cap)
                    .map(|slot| (slot, sp.contiguous_free()))
            })??;
            pages.free[i] = Some(free);
            return Ok(TupleId { page: pid, slot });
        }
        // Allocate a new page.
        // lint:allow(L102, allocation under the page-table lock may evict and write back one dirty page — bounded by design)
        let pid = self.pool.allocate_page()?;
        // lint:allow(L102, the fresh page is initialized under the page-table lock so no scan sees it half-formatted; a fault may write back one dirty page)
        let (slot, free) = self.pool.with_page_mut(pid, |page| {
            let mut sp = SlottedPage::init(page.payload_mut());
            sp.insert(bytes, cap)
                .map(|slot| (slot, sp.contiguous_free()))
        })??;
        pages.ids.push(pid);
        pages.free.push(Some(free));
        Ok(TupleId { page: pid, slot })
    }

    /// Read a record.
    pub fn read(&self, tid: TupleId) -> Result<Vec<u8>> {
        self.pool.with_page(tid.page, |page| {
            SlottedPage::view(page.payload())
                .read(tid.slot)
                .map(<[u8]>::to_vec)
        })?
    }

    /// Rewrite a record in place (degradation step). Capacity must hold.
    pub fn update(&self, tid: TupleId, bytes: &[u8]) -> Result<()> {
        let policy = self.policy;
        self.pool.with_page_mut(tid.page, |page| {
            let mut sp = SlottedPage::new(page.payload_mut());
            sp.update(tid.slot, bytes, policy)
        })?
    }

    /// Delete a record under the heap's policy.
    pub fn delete(&self, tid: TupleId) -> Result<()> {
        let policy = self.policy;
        self.pool.with_page_mut(tid.page, |page| {
            let mut sp = SlottedPage::new(page.payload_mut());
            sp.delete(tid.slot, policy)
        })?
    }

    /// Is the tuple live?
    pub fn exists(&self, tid: TupleId) -> bool {
        self.pool
            .with_page(tid.page, |page| {
                SlottedPage::view(page.payload()).is_live(tid.slot)
            })
            .unwrap_or(false)
    }

    /// Visit every page once, in page order, under its read latch.
    fn for_each_page(&self, mut f: impl FnMut(PageId, &SlottedPage<&[u8]>)) -> Result<()> {
        let pages = self.pages.lock().ids.clone();
        for pid in pages {
            self.pool
                .with_page(pid, |page| f(pid, &SlottedPage::view(page.payload())))?;
        }
        Ok(())
    }

    /// Full scan: `(tuple id, record bytes)` pairs, in page order.
    pub fn scan(&self) -> Result<Vec<(TupleId, Vec<u8>)>> {
        let mut out = Vec::new();
        self.for_each_page(|page, sp| {
            out.extend(
                sp.live_records()
                    .map(|(slot, bytes)| (TupleId { page, slot }, bytes.to_vec())),
            );
        })?;
        Ok(out)
    }

    /// Vacuum every page: compact slots and scrub residue. Returns total
    /// bytes reclaimed (experiment E12).
    pub fn vacuum(&self) -> Result<usize> {
        let pages = self.pages.lock().ids.clone();
        let mut reclaimed = 0usize;
        for (i, pid) in pages.into_iter().enumerate() {
            reclaimed += self.pool.with_page_mut(pid, |page| {
                let mut sp = SlottedPage::new(page.payload_mut());
                sp.compact()
            })?;
            // After the compaction, never before: an insert that lands in
            // between records the post-compaction value, and this only
            // makes the next insert probe the page again.
            self.pages.lock().free[i] = None;
        }
        Ok(reclaimed)
    }

    /// Number of live tuples.
    pub fn live_count(&self) -> Result<usize> {
        let mut n = 0;
        self.for_each_page(|_, sp| n += sp.live_records().count())?;
        Ok(n)
    }

    /// Flush all pages and return the raw on-disk image (forensic view).
    pub fn raw_image(&self) -> Result<Vec<u8>> {
        self.pool.flush_all()?;
        self.pool.disk().raw_image()
    }

    /// Total pages owned.
    pub fn page_count(&self) -> usize {
        self.pages.lock().ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn heap(policy: SecurePolicy) -> HeapFile {
        let disk = Arc::new(DiskManager::temp("heap").unwrap());
        let pool = Arc::new(BufferPool::new(disk, 16));
        HeapFile::create(pool, policy)
    }

    #[test]
    fn insert_read_update_delete() {
        let h = heap(SecurePolicy::Overwrite);
        let tid = h.insert(b"hello", 32).unwrap();
        assert_eq!(h.read(tid).unwrap(), b"hello");
        h.update(tid, b"hello, world").unwrap();
        assert_eq!(h.read(tid).unwrap(), b"hello, world");
        assert!(h.exists(tid));
        h.delete(tid).unwrap();
        assert!(!h.exists(tid));
        assert!(h.read(tid).is_err());
    }

    #[test]
    fn spills_to_multiple_pages() {
        let h = heap(SecurePolicy::Overwrite);
        let rec = vec![0xCD; 1000];
        let mut ids = Vec::new();
        for _ in 0..40 {
            ids.push(h.insert(&rec, 1000).unwrap());
        }
        assert!(h.page_count() >= 5, "40 KB must span pages");
        for tid in &ids {
            assert_eq!(h.read(*tid).unwrap(), rec);
        }
        assert_eq!(h.live_count().unwrap(), 40);
    }

    #[test]
    fn scan_returns_all_live() {
        let h = heap(SecurePolicy::Overwrite);
        let a = h.insert(b"a", 8).unwrap();
        let b = h.insert(b"b", 8).unwrap();
        let c = h.insert(b"c", 8).unwrap();
        h.delete(b).unwrap();
        let scanned = h.scan().unwrap();
        let ids: Vec<TupleId> = scanned.iter().map(|(t, _)| *t).collect();
        assert!(ids.contains(&a) && ids.contains(&c) && !ids.contains(&b));
        assert_eq!(scanned.len(), 2);
    }

    #[test]
    fn oversized_record_rejected() {
        let h = heap(SecurePolicy::Overwrite);
        let big = vec![0u8; HeapFile::max_record_cap() + 1];
        assert!(h.insert(&big, big.len()).is_err());
        // At exactly the max it works.
        let ok = vec![0u8; HeapFile::max_record_cap()];
        assert!(h.insert(&ok, ok.len()).is_ok());
    }

    #[test]
    fn secure_heap_has_no_residue_after_delete() {
        let h = heap(SecurePolicy::Overwrite);
        let tid = h.insert(b"FORENSIC-NEEDLE", 32).unwrap();
        h.delete(tid).unwrap();
        let img = h.raw_image().unwrap();
        assert!(
            !img.windows(15).any(|w| w == b"FORENSIC-NEEDLE"),
            "secure delete must scrub the page image"
        );
    }

    #[test]
    fn naive_heap_leaks_until_vacuum() {
        let h = heap(SecurePolicy::Naive);
        let tid = h.insert(b"FORENSIC-NEEDLE", 32).unwrap();
        h.delete(tid).unwrap();
        let img = h.raw_image().unwrap();
        assert!(
            img.windows(15).any(|w| w == b"FORENSIC-NEEDLE"),
            "naive delete leaves the bytes (classical DBMS behaviour)"
        );
        let reclaimed = h.vacuum().unwrap();
        assert!(reclaimed >= 32);
        let img2 = h.raw_image().unwrap();
        assert!(
            !img2.windows(15).any(|w| w == b"FORENSIC-NEEDLE"),
            "vacuum must scrub residue"
        );
    }

    #[test]
    fn update_in_place_preserves_tid_across_growth() {
        let h = heap(SecurePolicy::Overwrite);
        let tid = h.insert(b"Paris", 40).unwrap();
        h.update(tid, b"Ile-de-France").unwrap();
        h.update(tid, b"France").unwrap();
        assert_eq!(h.read(tid).unwrap(), b"France");
        assert_eq!(h.live_count().unwrap(), 1);
    }

    #[test]
    fn vacuum_keeps_survivors_readable() {
        let h = heap(SecurePolicy::Overwrite);
        let mut ids = Vec::new();
        for i in 0..100 {
            ids.push(h.insert(format!("rec{i}").as_bytes(), 24).unwrap());
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 3 != 0 {
                h.delete(*id).unwrap();
            }
        }
        h.vacuum().unwrap();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(h.read(*id).unwrap(), format!("rec{i}").as_bytes());
            }
        }
    }

    #[test]
    fn attach_recovers_pages() {
        let disk = Arc::new(DiskManager::temp("heap-attach").unwrap());
        let pool = Arc::new(BufferPool::new(disk.clone(), 16));
        let h = HeapFile::create(pool.clone(), SecurePolicy::Overwrite);
        let tid = h.insert(b"persisted", 16).unwrap();
        let pages = h.page_ids();
        pool.flush_all().unwrap();
        drop(h);
        let h2 = HeapFile::attach(pool, pages, SecurePolicy::Overwrite);
        assert_eq!(h2.read(tid).unwrap(), b"persisted");
    }
}
