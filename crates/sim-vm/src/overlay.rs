//! Copy-on-write guest memory: the only memory a restored VM has.
//!
//! Every restore maps the snapshot memory file MAP_PRIVATE: the VM reads
//! the frozen image and its writes stay private. [`CowMemory`] models
//! exactly that. Reads fall through to the shared base unless this VM
//! has written the page; writes always land in the overlay and are
//! invisible to every other VM over the same base. An ordinary restore
//! is a 1-way fork; N fork siblings are N overlays over one base, which
//! the [`Snapshot`](crate::snapshot::Snapshot) owns as an `Rc`.

use std::collections::BTreeMap;
use std::rc::Rc;

use sim_mm::addr::{PageNum, PageRange};

use crate::guest_memory::{checksum_step, GuestMemory, CHECKSUM_SEED};

/// Copy-on-write view over a shared base image.
///
/// The overlay maps dirtied pages to their private tokens; a stored 0 is
/// a tombstone (the sibling zeroed a page that is non-zero in the base).
/// Pages absent from the overlay read through to the base.
#[derive(Clone, Debug)]
pub struct CowMemory {
    base: Rc<GuestMemory>,
    overlay: BTreeMap<PageNum, u64>,
}

impl CowMemory {
    /// A fresh overlay over `base` with no private pages.
    pub fn new(base: Rc<GuestMemory>) -> Self {
        CowMemory {
            base,
            overlay: BTreeMap::new(),
        }
    }

    /// Total guest physical pages.
    pub fn total_pages(&self) -> u64 {
        self.base.total_pages()
    }

    /// Reads a page's content token (0 for zero pages).
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn read(&self, page: PageNum) -> u64 {
        assert!(page < self.total_pages(), "page {page} out of range");
        self.overlay
            .get(&page)
            .copied()
            .unwrap_or_else(|| self.base.read(page))
    }

    /// Writes a content token privately; a zero token makes the page a
    /// zero page.
    pub fn write(&mut self, page: PageNum, token: u64) {
        assert!(page < self.total_pages(), "page {page} out of range");
        self.overlay.insert(page, token);
    }

    /// Zeroes every page in `range` (freed-page sanitization).
    pub fn zero_range(&mut self, range: PageRange) {
        for p in range.iter() {
            if self.base.is_nonzero(p) {
                self.overlay.insert(p, 0);
            } else {
                // Base page is already zero: dropping any private copy
                // restores the shared zero page (the guest returned it).
                self.overlay.remove(&p);
            }
        }
    }

    /// The shared base image (for fork trees and sharing assertions).
    pub fn base(&self) -> &Rc<GuestMemory> {
        &self.base
    }

    /// Number of private (copied-on-write) pages in this overlay.
    pub fn private_pages(&self) -> u64 {
        self.overlay.len() as u64
    }

    /// Branches a child overlay: shares this overlay's base and starts
    /// from a copy of the current private pages (fork-of-fork).
    pub fn fork(&self) -> CowMemory {
        self.clone()
    }

    /// Flattens the overlay onto the base, producing the sibling's
    /// logical memory image. Only a new snapshot needs this copy; reads
    /// and [`CowMemory::checksum`] work on the overlay as it is.
    pub fn materialize(&self) -> GuestMemory {
        let mut pages = Vec::with_capacity(self.base.tokens().len() + self.overlay.len());
        self.for_each_page(|p, token| pages.push((p, token)));
        GuestMemory::from_sorted(self.total_pages(), pages)
    }

    /// Equals `self.materialize().checksum()`, computed over the merge of
    /// base and overlay without building the image.
    pub fn checksum(&self) -> u64 {
        let mut acc = CHECKSUM_SEED;
        self.for_each_page(|p, token| {
            if token != 0 {
                acc = checksum_step(acc, p, token);
            }
        });
        acc
    }

    /// Calls `f` on the logical image as one ordered merge of base and
    /// overlay: `(page, token)` in ascending page order, private pages
    /// winning (tombstones and zero writes included, as 0).
    fn for_each_page(&self, mut f: impl FnMut(PageNum, u64)) {
        let base = self.base.tokens();
        let mut from = 0;
        for (&o, &t) in &self.overlay {
            base.range(from..o).for_each(|(&p, &token)| f(p, token));
            f(o, t);
            from = o + 1;
        }
        base.range(from..).for_each(|(&p, &token)| f(p, token));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Rc<GuestMemory> {
        let mut m = GuestMemory::new(64);
        for p in 10..20 {
            m.write(p, p * 100);
        }
        Rc::new(m)
    }

    #[test]
    fn reads_fall_through_to_base() {
        let c = CowMemory::new(base());
        assert_eq!(c.read(12), 1200);
        assert_eq!(c.read(0), 0);
        assert_eq!(c.private_pages(), 0);
    }

    #[test]
    fn writes_are_private_to_the_overlay() {
        let b = base();
        let mut s1 = CowMemory::new(b.clone());
        let mut s2 = CowMemory::new(b.clone());
        s1.write(12, 7);
        s2.write(12, 8);
        assert_eq!(s1.read(12), 7);
        assert_eq!(s2.read(12), 8);
        assert_eq!(b.read(12), 1200, "base untouched");
        assert_eq!(s1.private_pages(), 1);
    }

    #[test]
    fn zero_range_tombstones_base_pages_only() {
        let mut c = CowMemory::new(base());
        c.write(3, 5); // private page over a zero base page
        c.zero_range(PageRange::new(0, 16));
        assert_eq!(c.read(12), 0, "base non-zero page tombstoned");
        assert_eq!(c.read(3), 0, "private copy dropped");
        // Tombstones only where the base is non-zero: pages 10..16.
        assert_eq!(c.private_pages(), 6);
        assert_eq!(c.read(18), 1800, "outside the range untouched");
    }

    #[test]
    fn materialize_matches_flat_replay() {
        let b = base();
        let mut cow = CowMemory::new(b.clone());
        let mut flat = (*b).clone();
        for (p, t) in [(12, 7), (30, 9), (15, 0)] {
            cow.write(p, t);
            flat.write(p, t);
        }
        cow.zero_range(PageRange::new(18, 22));
        flat.zero_range(PageRange::new(18, 22));
        assert_eq!(cow.materialize(), flat);
    }

    #[test]
    fn fork_of_fork_shares_one_base() {
        let b = base();
        let mut parent = CowMemory::new(b.clone());
        parent.write(12, 7);
        let mut child = parent.fork();
        child.write(13, 8);
        assert_eq!(child.read(12), 7, "inherits parent's private page");
        assert_eq!(parent.read(13), 1300, "parent blind to child writes");
        assert!(Rc::ptr_eq(parent.base(), child.base()));
        assert_eq!(Rc::strong_count(&b), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cow_out_of_range_read_panics() {
        CowMemory::new(base()).read(64);
    }
}
