//! The `mincore(2)` model used for FaaSnap's host page recording.
//!
//! §4.4: "FaaSnap uses the mincore syscall to construct the working set
//! file. mincore scans the present bits in the page table entries to
//! determine if pages in a memory range are present in memory. In our
//! case, it detects if guest pages are in the host page cache."
//!
//! For a file-backed mapping, a page is *in core* iff the backing file
//! page is resident in the page cache — whether it got there via a guest
//! fault, kernel readahead, or another process reading the same file. This
//! is exactly why host page recording is more tolerant of working-set
//! drift than `userfaultfd` tracking: readahead-predicted pages are
//! recorded too. For an anonymous mapping, a page is in core iff it is
//! resident in the address space.

use std::collections::BTreeMap;

use sim_storage::file::FileId;

use crate::addr::{PageNum, PageRange};
use crate::page_table::{PageState, PageTable};
use crate::share::{ShareMap, SharedPages};
use crate::vma::{AddressSpace, Backing, Resolved};

/// Returns the in-core bitmap for `range` of the mapped guest region,
/// exactly as `mincore` would report it.
pub fn mincore(
    range: PageRange,
    aspace: &AddressSpace,
    pt: &PageTable,
    cache: &SharedPages,
) -> Vec<bool> {
    range
        .iter()
        .map(|p| page_in_core(p, aspace, pt, cache))
        .collect()
}

/// In-core test for a single page.
pub fn page_in_core(
    page: PageNum,
    aspace: &AddressSpace,
    pt: &PageTable,
    cache: &SharedPages,
) -> bool {
    match aspace.resolve(page) {
        Some(Resolved::File { file, file_page }) => cache.contains(file, file_page),
        Some(Resolved::Anonymous) => pt.state(page) != PageState::NotPresent,
        None => false,
    }
}

/// FaaSnap's record-phase `mincore` scanner (§5): each
/// [`MincoreScanner::scan`] returns the pages of its range that are in
/// core now and were not returned before, in address order.
///
/// A scan never walks the range. A page of it comes into core only
/// through one of:
///
/// - a page-cache insert (or touch) of its canonical key, which lands on
///   the cache's recency queue past the last scan's stamp
///   ([`PageCache::keys_since`]); the key maps back to guest pages through
///   the translation map and the file-backed VMAs;
/// - a not-present → present transition in the page table, on its present
///   log ([`PageTable::log_present`], which the first scan turns on) —
///   anonymous pages;
/// - a remap (`mmap_calls` moved), or a cache replacement or translation-
///   map change ([`SharedPages::generation`] moved).
///
/// The first two give the candidates, which are sorted, deduplicated and
/// filtered by the same `!seen && page_in_core` test a full walk applies,
/// so the result is exactly the full walk's, and a scan costs O(cache
/// operations and page arrivals since the last scan). On the first scan,
/// and after the third kind of change, the candidates are the whole queue
/// and the whole present log: every resident key has its latest entry in
/// the queue and every present page its latest arrival in the log, so the
/// rescan is exact under the new mapping too. The record phase drops the
/// cache first, so that history is its own.
///
/// [`PageCache::keys_since`]: crate::page_cache::PageCache::keys_since
/// [`PageTable::log_present`]: crate::page_table::PageTable::log_present
#[derive(Clone, Debug)]
pub struct MincoreScanner {
    range: PageRange,
    seen: Vec<bool>,
    /// Where the last scan left each change source; `None` before it.
    mark: Option<Mark>,
    /// Canonical cache key → guest pages, for the mapping of the last scan.
    reverse: ReverseMap,
    examined: u64,
}

impl MincoreScanner {
    /// A scanner over `range` that has returned nothing yet.
    pub fn new(range: PageRange) -> Self {
        MincoreScanner {
            range,
            seen: vec![false; range.len() as usize],
            mark: None,
            reverse: ReverseMap::default(),
            examined: 0,
        }
    }

    /// Returns the pages in core now that no earlier scan returned, in
    /// address order. Turns on `pt`'s present log.
    pub fn scan(
        &mut self,
        aspace: &AddressSpace,
        pt: &mut PageTable,
        cache: &SharedPages,
    ) -> Vec<PageNum> {
        pt.log_present();
        let pt = &*pt;
        let now = Mark::of(aspace, pt, cache);
        // Changes since the last scan, or since the start if the mapping
        // from pages to cache keys moved under it.
        let since = match self.mark {
            Some(last) if last.same_mapping(&now) => last,
            _ => {
                self.reverse = ReverseMap::build(self.range, aspace, cache.share());
                Mark::ORIGIN
            }
        };
        self.mark = Some(now);
        let mut candidates = Vec::new();
        for (file, page) in cache.cache().keys_since(since.stamp) {
            self.reverse.guest_pages(file, page, |g| candidates.push(g));
        }
        let range = self.range;
        let arrived = pt.present_log().unwrap_or_default();
        candidates.extend(
            arrived
                .iter()
                .skip(since.logged)
                .filter(|&&p| range.contains(p)),
        );
        candidates.sort_unstable();
        candidates.dedup();
        self.examined += candidates.len() as u64;
        let seen = &mut self.seen;
        candidates
            .into_iter()
            .filter(|&p| match seen.get_mut((p - range.start) as usize) {
                Some(s) if !*s && page_in_core(p, aspace, pt, cache) => {
                    *s = true;
                    true
                }
                _ => false,
            })
            .collect()
    }

    /// Candidate pages examined by all scans so far. Deterministic: a pure
    /// function of the operations between scans.
    pub fn pages_examined(&self) -> u64 {
        self.examined
    }
}

/// The state of every change source at one scan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Mark {
    mmap_calls: u64,
    generation: u64,
    /// Page-cache stamp watermark.
    stamp: u64,
    /// Length of the page table's present log.
    logged: usize,
}

impl Mark {
    /// Before anything happened: the whole queue and log are new.
    const ORIGIN: Mark = Mark {
        mmap_calls: 0,
        generation: 0,
        stamp: 0,
        logged: 0,
    };

    fn of(aspace: &AddressSpace, pt: &PageTable, cache: &SharedPages) -> Mark {
        Mark {
            mmap_calls: aspace.mmap_calls(),
            generation: cache.generation(),
            stamp: cache.cache().stamp(),
            logged: pt.present_log().map_or(0, <[PageNum]>::len),
        }
    }

    /// True if pages map to the same cache keys at `self` and `now`.
    fn same_mapping(&self, now: &Mark) -> bool {
        self.mmap_calls == now.mmap_calls && self.generation == now.generation
    }
}

/// Canonical cache key → the guest pages of a scan range whose mapping
/// resolves to it.
#[derive(Clone, Debug, Default)]
struct ReverseMap {
    /// Canonical file → the windows of it that pages of mapped logical
    /// files translate to, valued by `(logical file, logical start)`.
    canon: BTreeMap<FileId, Intervals<(FileId, u64)>>,
    /// Logical file → the windows of it that file-backed VMAs (clipped to
    /// the range) map, valued by the guest page of the window's start.
    vmas: BTreeMap<FileId, Intervals<PageNum>>,
}

impl ReverseMap {
    fn build(range: PageRange, aspace: &AddressSpace, share: &ShareMap) -> ReverseMap {
        let mut vmas: BTreeMap<FileId, Windows<PageNum>> = BTreeMap::new();
        for vma in aspace.iter() {
            let Backing::File { file, offset_page } = vma.backing else {
                continue;
            };
            let clip = vma.range.intersect(&range);
            if clip.is_empty() {
                continue;
            }
            let start = offset_page + (clip.start - vma.range.start);
            vmas.entry(file)
                .or_default()
                .push((start, start + clip.len(), clip.start));
        }
        let mut canon: BTreeMap<FileId, Windows<(FileId, u64)>> = BTreeMap::new();
        for &file in vmas.keys() {
            for (cf, cs, ls, len) in share.windows_of(file) {
                canon
                    .entry(cf)
                    .or_default()
                    .push((cs, cs.saturating_add(len), (file, ls)));
            }
        }
        ReverseMap {
            canon: canon
                .into_iter()
                .map(|(f, w)| (f, Intervals::new(w)))
                .collect(),
            vmas: vmas
                .into_iter()
                .map(|(f, w)| (f, Intervals::new(w)))
                .collect(),
        }
    }

    /// Calls `f` with every guest page that resolves to `(file, page)`.
    fn guest_pages(&self, file: FileId, page: u64, mut f: impl FnMut(PageNum)) {
        let Some(windows) = self.canon.get(&file) else {
            return;
        };
        for (cs, (lf, ls)) in windows.containing(page) {
            let logical = ls + (page - cs);
            if let Some(vmas) = self.vmas.get(&lf) {
                for (fs, guest) in vmas.containing(logical) {
                    f(guest + (logical - fs));
                }
            }
        }
    }
}

/// Half-open `(start, end, value)` windows.
type Windows<T> = Vec<(u64, u64, T)>;

/// Half-open intervals sorted by start, each carrying the furthest end of
/// any interval up to it, so a stabbing query walks back only over
/// intervals that can still contain the point.
#[derive(Clone, Debug)]
struct Intervals<T> {
    /// `(start, end, reach, value)`.
    items: Vec<(u64, u64, u64, T)>,
}

impl<T> Default for Intervals<T> {
    fn default() -> Self {
        Intervals { items: Vec::new() }
    }
}

impl<T: Copy> Intervals<T> {
    fn new(mut windows: Windows<T>) -> Self {
        windows.sort_by_key(|&(start, end, _)| (start, end));
        let mut reach = 0;
        let items = windows
            .into_iter()
            .map(|(start, end, v)| {
                reach = reach.max(end);
                (start, end, reach, v)
            })
            .collect();
        Intervals { items }
    }

    /// `(start, value)` of every interval containing `x`.
    fn containing(&self, x: u64) -> impl Iterator<Item = (u64, T)> + '_ {
        let n = self.items.partition_point(|&(start, ..)| start <= x);
        self.items
            .iter()
            .take(n)
            .rev()
            .take_while(move |&&(_, _, reach, _)| reach > x)
            .filter(move |&&(_, end, _, _)| end > x)
            .map(|&(start, _, _, v)| (start, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::Backing;
    use sim_storage::file::FileId;

    fn world() -> (AddressSpace, PageTable, SharedPages) {
        let mut a = AddressSpace::new();
        a.map_fixed(
            PageRange::new(0, 50),
            Backing::File {
                file: FileId(1),
                offset_page: 0,
            },
        );
        a.map_fixed(PageRange::new(50, 100), Backing::Anonymous);
        (a, PageTable::new(100), SharedPages::new(1000))
    }

    #[test]
    fn file_pages_follow_page_cache() {
        let (a, pt, mut c) = world();
        assert!(!page_in_core(10, &a, &pt, &c));
        c.insert(FileId(1), 10);
        assert!(page_in_core(10, &a, &pt, &c));
    }

    #[test]
    fn readahead_pages_visible_without_guest_access() {
        // The key host-page-recording property: pages cached by readahead
        // are in core even though the guest never faulted on them.
        let (a, pt, mut c) = world();
        c.insert_range(FileId(1), 20, 8);
        let bits = mincore(PageRange::new(18, 30), &a, &pt, &c);
        assert_eq!(
            bits,
            vec![false, false, true, true, true, true, true, true, true, true, false, false]
        );
        assert_eq!(pt.rss_pages(), 0, "guest never touched anything");
    }

    #[test]
    fn anon_pages_follow_residency() {
        let (a, mut pt, c) = world();
        assert!(!page_in_core(60, &a, &pt, &c));
        pt.install(60);
        assert!(page_in_core(60, &a, &pt, &c));
        pt.set_state(61, PageState::HostPte);
        assert!(page_in_core(61, &a, &pt, &c), "host-PTE pages are resident");
    }

    #[test]
    fn unmapped_pages_not_in_core() {
        let (a, pt, c) = world();
        assert!(!page_in_core(500, &a, &pt, &c));
    }

    #[test]
    fn incremental_scan_returns_only_new_pages() {
        let (a, mut pt, mut c) = world();
        let mut scanner = MincoreScanner::new(PageRange::new(0, 100));
        pt.install(55); // present before the first scan
        c.insert_range(FileId(1), 5, 3);
        assert_eq!(scanner.scan(&a, &mut pt, &c), vec![5, 6, 7, 55]);
        // Nothing new on re-scan.
        assert!(scanner.scan(&a, &mut pt, &c).is_empty());
        c.insert(FileId(1), 30);
        pt.install(70);
        assert_eq!(scanner.scan(&a, &mut pt, &c), vec![30, 70]);
        assert_eq!(
            scanner.pages_examined(),
            6,
            "only the changes, never the range"
        );
    }

    #[test]
    fn remap_rescans_the_cache_history_under_the_new_mapping() {
        let (mut a, mut pt, mut c) = world();
        let mut scanner = MincoreScanner::new(PageRange::new(0, 100));
        c.insert_range(FileId(2), 0, 10);
        assert!(scanner.scan(&a, &mut pt, &c).is_empty());
        // Remapping brings already-cached pages of another file into core.
        a.map_fixed(
            PageRange::new(60, 70),
            Backing::File {
                file: FileId(2),
                offset_page: 5,
            },
        );
        assert_eq!(scanner.scan(&a, &mut pt, &c), (60..65).collect::<Vec<_>>());
        c.insert(FileId(2), 12);
        assert_eq!(scanner.scan(&a, &mut pt, &c), vec![67]);
        assert_eq!(scanner.pages_examined(), 6);
    }
}
