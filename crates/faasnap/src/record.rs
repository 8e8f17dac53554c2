//! Record-phase working-set recording.
//!
//! FaaSnap's *host page recording* (§4.4, §5): the daemon polls the guest
//! RSS through procfs and, once at least one group's worth (1024) of new
//! pages is resident, runs `mincore` over the mapped memory file to find
//! the pages that became present since the last scan — including pages
//! pulled in by kernel readahead that the guest never faulted on. Pages
//! get group numbers in scan-appearance order.
//!
//! REAP's recording (§2.5) is `userfaultfd`-based: the handler sees each
//! first fault and records the faulting page, in order — readahead pages
//! are invisible to it.

use sim_mm::addr::{PageNum, PageRange};
use sim_mm::mincore::MincoreScanner;
use sim_mm::page_table::PageTable;
use sim_mm::share::SharedPages;
use sim_mm::vma::AddressSpace;

use crate::wset::{ReapWorkingSet, WorkingSet};

/// Incremental `mincore`-based working-set recorder.
#[derive(Clone, Debug)]
pub struct MincoreRecorder {
    scanner: MincoreScanner,
    ws: WorkingSet,
    /// RSS (pages) at the last scan, for pacing.
    last_scan_rss: u64,
    /// Minimum new resident pages before another scan (one group).
    scan_threshold: u64,
    scans: u64,
}

impl MincoreRecorder {
    /// Creates a recorder over the guest range `[0, total_pages)`.
    pub fn new(total_pages: u64) -> Self {
        Self::with_params(total_pages, WorkingSet::new(), 1024)
    }

    /// Creates a recorder with a custom working set (group size) and scan
    /// threshold.
    pub fn with_params(total_pages: u64, ws: WorkingSet, scan_threshold: u64) -> Self {
        MincoreRecorder {
            scanner: MincoreScanner::new(PageRange::new(0, total_pages)),
            ws,
            last_scan_rss: 0,
            scan_threshold,
            scans: 0,
        }
    }

    /// Called on each daemon poll tick: scans if RSS grew by at least the
    /// threshold since the last scan. Returns true if a scan ran.
    pub fn poll(
        &mut self,
        rss_pages: u64,
        aspace: &AddressSpace,
        pt: &mut PageTable,
        cache: &SharedPages,
    ) -> bool {
        if rss_pages < self.last_scan_rss + self.scan_threshold {
            return false;
        }
        self.scan(aspace, pt, cache);
        self.last_scan_rss = rss_pages;
        true
    }

    /// Unconditional scan (the final scan after the invocation finishes).
    /// Costs O(pages changed since the last scan); see [`MincoreScanner`].
    pub fn scan(&mut self, aspace: &AddressSpace, pt: &mut PageTable, cache: &SharedPages) {
        let new_pages = self.scanner.scan(aspace, pt, cache);
        self.ws.extend(&new_pages);
        self.scans += 1;
    }

    /// Number of scans performed.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Candidate pages the scans examined.
    pub fn pages_examined(&self) -> u64 {
        self.scanner.pages_examined()
    }

    /// Finishes recording and returns the working set.
    pub fn finish(self) -> WorkingSet {
        self.ws
    }

    /// The working set recorded so far.
    pub fn working_set(&self) -> &WorkingSet {
        &self.ws
    }
}

/// REAP-style fault tracker: first faults only, in order.
#[derive(Clone, Debug, Default)]
pub struct UffdTracker {
    ws: ReapWorkingSet,
    seen: Vec<bool>,
}

impl UffdTracker {
    /// Creates a tracker over `total_pages` guest pages.
    pub fn new(total_pages: u64) -> Self {
        UffdTracker {
            ws: ReapWorkingSet::new(),
            seen: vec![false; total_pages as usize],
        }
    }

    /// Records a fault on `page` (deduplicated).
    pub fn on_fault(&mut self, page: PageNum) {
        if !self.seen[page as usize] {
            self.seen[page as usize] = true;
            self.ws.record(page);
        }
    }

    /// Finishes and returns REAP's working set.
    pub fn finish(self) -> ReapWorkingSet {
        self.ws
    }

    /// The working set recorded so far.
    pub fn working_set(&self) -> &ReapWorkingSet {
        &self.ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mm::vma::Backing;
    use sim_storage::file::FileId;

    fn world(total: u64) -> (AddressSpace, PageTable, SharedPages) {
        let mut a = AddressSpace::new();
        a.map_fixed(
            PageRange::new(0, total),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        (a, PageTable::new(total), SharedPages::new(1 << 20))
    }

    #[test]
    fn scan_after_k_new_pages_examines_at_most_k() {
        // A 2 GB guest: no scan walks it.
        let total = 524_288;
        let (a, mut pt, mut cache) = world(total);
        let mut rec = MincoreRecorder::new(total);
        cache.insert_range(FileId(1), 0, 100);
        rec.scan(&a, &mut pt, &cache);
        assert_eq!(rec.pages_examined(), 100);
        for k in [0, 1, 7, 1000] {
            let before = rec.pages_examined();
            cache.insert_range(FileId(1), total - 2000 + k, k);
            rec.scan(&a, &mut pt, &cache);
            assert!(rec.pages_examined() - before <= k, "k = {k}");
        }
        assert_eq!(rec.working_set().len(), 100 + 1 + 7 + 1000);
    }

    #[test]
    fn paced_scanning() {
        let (a, mut pt, mut cache) = world(10_000);
        let mut rec = MincoreRecorder::with_params(10_000, WorkingSet::with_group_size(64), 64);
        // Fewer than threshold new pages: no scan.
        cache.insert_range(FileId(1), 0, 10);
        assert!(!rec.poll(10, &a, &mut pt, &cache));
        assert_eq!(rec.scans(), 0);
        // Crossing the threshold triggers a scan.
        cache.insert_range(FileId(1), 100, 60);
        assert!(rec.poll(70, &a, &mut pt, &cache));
        assert_eq!(rec.scans(), 1);
        assert_eq!(rec.working_set().len(), 70);
        // No growth: no scan.
        assert!(!rec.poll(70, &a, &mut pt, &cache));
    }

    #[test]
    fn readahead_pages_recorded() {
        // Host page recording's defining property: pages cached without
        // any guest fault are in the working set.
        let (a, mut pt, mut cache) = world(1000);
        let mut rec = MincoreRecorder::new(1000);
        cache.insert_range(FileId(1), 500, 32); // pure readahead
        rec.scan(&a, &mut pt, &cache);
        let ws = rec.finish();
        assert_eq!(ws.len(), 32);
        assert!(ws.page_set().contains(&531));
    }

    #[test]
    fn scan_order_defines_groups() {
        let (a, mut pt, mut cache) = world(1000);
        let mut rec = MincoreRecorder::with_params(1000, WorkingSet::with_group_size(4), 1);
        cache.insert_range(FileId(1), 100, 4);
        rec.scan(&a, &mut pt, &cache);
        cache.insert_range(FileId(1), 0, 4); // lower address, later scan
        rec.scan(&a, &mut pt, &cache);
        let ws = rec.finish();
        assert_eq!(ws.pages(), &[100, 101, 102, 103, 0, 1, 2, 3]);
        let g: Vec<u32> = ws.pages_with_groups().map(|(_, g)| g).collect();
        assert_eq!(g, vec![0, 0, 0, 0, 1, 1, 1, 1], "later scan, later group");
    }

    #[test]
    fn final_scan_catches_stragglers() {
        let (a, mut pt, mut cache) = world(1000);
        let mut rec = MincoreRecorder::new(1000);
        cache.insert_range(FileId(1), 0, 10);
        rec.scan(&a, &mut pt, &cache);
        cache.insert_range(FileId(1), 50, 5);
        rec.scan(&a, &mut pt, &cache); // the unconditional final scan
        assert_eq!(rec.working_set().len(), 15);
    }

    #[test]
    fn uffd_tracker_dedupes_and_orders() {
        let mut t = UffdTracker::new(100);
        t.on_fault(30);
        t.on_fault(10);
        t.on_fault(30);
        t.on_fault(99);
        assert_eq!(t.working_set().pages(), &[30, 10, 99]);
        assert_eq!(t.finish().len(), 3);
    }
}
