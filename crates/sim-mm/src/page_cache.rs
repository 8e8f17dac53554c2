//! The host OS page cache, shared by all VMs.
//!
//! §3.4: "The OS page cache can play an important role in accelerating VM
//! page faults." The cache is the mechanism behind three paper results:
//!
//! - the `Cached` reference setting pre-populates it, so every fault is a
//!   fast minor fault;
//! - FaaSnap's concurrent-paging loader populates it *during* execution so
//!   guest faults opportunistically become minor faults;
//! - in same-snapshot bursts, VMs "are in effect loading the cache for
//!   each other" (§6.6), while REAP's O_DIRECT reads bypass it.
//!
//! The model is an exact LRU over `(file, page)` keys with a lazily
//! compacted recency queue, plus explicit drop operations mirroring the
//! evaluation's `drop_caches` between runs (§6.1). Every touch appends
//! to the queue, so hot pages leave stale entries behind; once those
//! outnumber the resident pages the queue is compacted down to one
//! entry per resident page, which keeps it within twice the resident
//! count (plus [`QUEUE_SLACK`]) however long the run.

use std::collections::VecDeque;

use sim_core::detmap::DetMap;
use sim_storage::file::FileId;

/// Key of one cached file page.
type Key = (FileId, u64);

/// Stale recency-queue entries tolerated beyond the resident page count:
/// the queue is compacted once it holds more than twice the resident
/// pages plus this many entries.
pub const QUEUE_SLACK: usize = 32;

/// The host page cache.
#[derive(Clone, Debug)]
pub struct PageCache {
    /// Maximum resident pages (host memory budget for the cache).
    capacity_pages: u64,
    /// Page -> recency stamp of the most recent touch. Insertion-ordered
    /// deterministic map; eviction and compaction follow the stamp-sorted
    /// queue, never its iteration order.
    resident: DetMap<Key, u64>,
    /// Recency queue: (stamp, key), sorted by stamp; stale entries are
    /// skipped on eviction and dropped by compaction.
    queue: VecDeque<(u64, Key)>,
    next_stamp: u64,
    /// Cumulative counters.
    insertions: u64,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl PageCache {
    /// Creates a cache bounded to `capacity_pages` resident pages.
    pub fn new(capacity_pages: u64) -> Self {
        assert!(capacity_pages > 0, "page cache capacity must be positive");
        PageCache {
            capacity_pages,
            resident: DetMap::new(),
            queue: VecDeque::new(),
            next_stamp: 0,
            insertions: 0,
            evictions: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity_pages
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }

    /// True if `page` of `file` is cached. Does not update recency or
    /// hit/miss counters (pure query, e.g. for `mincore`).
    pub fn contains(&self, file: FileId, page: u64) -> bool {
        self.resident.contains_key(&(file, page))
    }

    /// Lookup on the fault path: updates recency and hit/miss counters.
    pub fn touch(&mut self, file: FileId, page: u64) -> bool {
        let stamp = self.bump();
        match self.resident.get_mut(&(file, page)) {
            Some(s) => {
                *s = stamp;
                self.push((stamp, (file, page)));
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Inserts one page (idempotent; refreshes recency if present).
    pub fn insert(&mut self, file: FileId, page: u64) {
        let stamp = self.bump();
        let prev = self.resident.insert((file, page), stamp);
        self.push((stamp, (file, page)));
        if prev.is_none() {
            self.insertions += 1;
            self.evict_if_needed();
        }
    }

    /// Inserts `len` consecutive pages starting at `start`.
    pub fn insert_range(&mut self, file: FileId, start: u64, len: u64) {
        for p in start..start + len {
            self.insert(file, p);
        }
    }

    /// Number of pages of `file` currently cached.
    pub fn resident_of(&self, file: FileId) -> u64 {
        self.resident.keys().filter(|(f, _)| *f == file).count() as u64
    }

    /// Every resident key, in no particular order.
    pub(crate) fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.resident.keys().copied()
    }

    /// Drops every cached page of `file` (per-file cache drop).
    pub fn drop_file(&mut self, file: FileId) {
        self.resident.retain(|(f, _), _| *f != file);
        self.compact();
    }

    /// Drops everything (`echo 3 > /proc/sys/vm/drop_caches`).
    pub fn drop_all(&mut self) {
        self.resident.clear();
        self.queue.clear();
    }

    /// The stamp the next insert or touch will take: a watermark for
    /// [`PageCache::keys_since`].
    pub fn stamp(&self) -> u64 {
        self.next_stamp
    }

    /// Keys inserted or touched at or after the watermark `stamp`, oldest
    /// first; may repeat keys and include evicted or dropped ones.
    ///
    /// Every page resident now that entered the cache (or was touched) at
    /// or after `stamp` is among them: each insert and touch pushes its
    /// `(stamp, key)` onto the back of the recency queue and eviction pops
    /// only from the front, removing only the entry it pops. So the queue
    /// is sorted by stamp and its tail past the watermark holds every page
    /// that can have become resident since. Compaction keeps that true:
    /// it drops only stale entries and keeps each resident page's current
    /// one, in order.
    pub fn keys_since(&self, stamp: u64) -> impl Iterator<Item = Key> + '_ {
        let from = self.queue.partition_point(|&(s, _)| s < stamp);
        self.queue.range(from..).map(|&(_, key)| key)
    }

    /// `(hits, misses)` on the fault path so far.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Total evictions so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Appends a fresh `(stamp, key)` entry, compacting the queue first
    /// once stale entries outnumber resident pages (by [`QUEUE_SLACK`]).
    /// A compaction costs one pass over at most `2 × resident + slack`
    /// entries and leaves `resident`, so at least `resident + slack`
    /// pushes come between two of them: amortized O(1) per push.
    fn push(&mut self, entry: (u64, Key)) {
        if self.queue.len() >= 2 * self.resident.len() + QUEUE_SLACK {
            self.compact();
        }
        self.queue.push_back(entry);
    }

    /// Drops every stale queue entry, keeping each resident page's
    /// current one in stamp order. Eviction order is unchanged: it skips
    /// exactly the entries this drops.
    fn compact(&mut self) {
        let resident = &self.resident;
        self.queue
            .retain(|(stamp, key)| resident.get(key) == Some(stamp));
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    fn evict_if_needed(&mut self) {
        // Every resident page's current `(stamp, key)` is in the queue
        // (drops and re-touches only leave *extra*, stale entries), so the
        // queue cannot run dry while the cache is over capacity.
        while self.resident.len() as u64 > self.capacity_pages {
            let Some((stamp, key)) = self.queue.pop_front() else {
                break;
            };
            // Skip stale queue entries (the page was touched again later,
            // or already dropped).
            if self.resident.get(&key) == Some(&stamp) {
                self.resident.remove(&key);
                self.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u64) -> FileId {
        FileId(id)
    }

    #[test]
    fn insert_and_query() {
        let mut c = PageCache::new(100);
        assert!(!c.contains(f(1), 5));
        c.insert(f(1), 5);
        assert!(c.contains(f(1), 5));
        assert!(!c.contains(f(2), 5));
        assert_eq!(c.resident_pages(), 1);
    }

    #[test]
    fn insert_range_and_per_file_count() {
        let mut c = PageCache::new(100);
        c.insert_range(f(1), 10, 5);
        c.insert_range(f(2), 0, 3);
        assert_eq!(c.resident_of(f(1)), 5);
        assert_eq!(c.resident_of(f(2)), 3);
        assert_eq!(c.resident_pages(), 8);
    }

    #[test]
    fn touch_tracks_hits_and_misses() {
        let mut c = PageCache::new(100);
        c.insert(f(1), 1);
        assert!(c.touch(f(1), 1));
        assert!(!c.touch(f(1), 2));
        assert_eq!(c.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = PageCache::new(3);
        c.insert(f(1), 0);
        c.insert(f(1), 1);
        c.insert(f(1), 2);
        // Touch page 0 so page 1 is the LRU victim.
        assert!(c.touch(f(1), 0));
        c.insert(f(1), 3);
        assert!(c.contains(f(1), 0), "recently touched survives");
        assert!(!c.contains(f(1), 1), "LRU page evicted");
        assert!(c.contains(f(1), 2));
        assert!(c.contains(f(1), 3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn idempotent_insert_does_not_grow() {
        let mut c = PageCache::new(2);
        c.insert(f(1), 0);
        c.insert(f(1), 0);
        c.insert(f(1), 0);
        assert_eq!(c.resident_pages(), 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn drop_file_only_affects_that_file() {
        let mut c = PageCache::new(100);
        c.insert_range(f(1), 0, 10);
        c.insert_range(f(2), 0, 10);
        c.drop_file(f(1));
        assert_eq!(c.resident_of(f(1)), 0);
        assert_eq!(c.resident_of(f(2)), 10);
    }

    #[test]
    fn drop_all_clears() {
        let mut c = PageCache::new(100);
        c.insert_range(f(1), 0, 50);
        c.drop_all();
        assert_eq!(c.resident_pages(), 0);
    }

    #[test]
    fn eviction_after_drop_file_rebuild() {
        let mut c = PageCache::new(5);
        c.insert_range(f(1), 0, 5);
        c.drop_file(f(1)); // compacts the dropped pages' entries away
        assert!(c.queue.is_empty());
        c.insert_range(f(2), 0, 7);
        assert_eq!(c.resident_pages(), 5);
        assert!(c.contains(f(2), 6));
        assert!(!c.contains(f(2), 0));
    }

    #[test]
    fn keys_since_covers_every_page_resident_since_the_watermark() {
        let mut c = PageCache::new(4);
        c.insert_range(f(1), 0, 3);
        let mark = c.stamp();
        assert_eq!(c.keys_since(mark).count(), 0);
        assert!(c.touch(f(1), 0));
        c.insert_range(f(2), 0, 2); // evicts (1, 1)
        let tail: Vec<Key> = c.keys_since(mark).collect();
        assert_eq!(tail, vec![(f(1), 0), (f(2), 0), (f(2), 1)]);
        // Evicting past the stale entries drop_file leaves behind.
        c.drop_file(f(1));
        c.insert_range(f(3), 0, 5);
        let tail: Vec<Key> = c.keys_since(mark).collect();
        for key in c.resident.keys() {
            assert!(tail.contains(key), "{key:?} resident but not in the tail");
        }
    }

    #[test]
    fn queue_stays_bounded_and_lru_exact_under_long_touch_runs() {
        // A hot set touched over and over (the fork-sibling pattern: no
        // eviction ever trims the queue), then the same with a cold
        // stream that forces evictions, checked against a naive LRU
        // list: compaction must bound the queue and change no victim.
        let mut c = PageCache::new(40);
        let mut model: Vec<Key> = Vec::new(); // least recent first
        let mut x: u64 = 7;
        for step in 0..20_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = if step >= 10_000 && x >> 62 == 0 {
                (f(2), step) // cold: a new page every time
            } else {
                (f(1), (x >> 33) % 30) // hot
            };
            let hit = c.contains(key.0, key.1);
            if x & 1 == 0 && hit {
                assert!(c.touch(key.0, key.1));
            } else {
                c.insert(key.0, key.1);
            }
            model.retain(|k| *k != key);
            model.push(key);
            if model.len() > 40 {
                model.remove(0);
            }
            assert!(
                c.queue.len() <= 2 * c.resident.len() + QUEUE_SLACK,
                "queue {} for {} resident at step {step}",
                c.queue.len(),
                c.resident.len()
            );
        }
        assert_eq!(c.resident_pages(), model.len() as u64);
        for k in &model {
            assert!(c.contains(k.0, k.1), "{k:?} evicted out of LRU order");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        PageCache::new(0);
    }
}
