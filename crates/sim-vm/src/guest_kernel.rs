//! Guest-kernel semantics visible to the host.
//!
//! Two behaviors matter to FaaSnap:
//!
//! 1. **Anonymous page allocation.** A guest write to a fresh anonymous
//!    page traps to the guest's copy-on-write handler, which allocates a
//!    guest physical page and copies the zero page into it (§4.5). From
//!    the host's view this is simply a *write* to a guest physical page
//!    that was zero — which, under vanilla whole-file mapping, still
//!    triggers a useless disk read (the semantic gap).
//! 2. **Page sanitization.** The modified guest kernel's
//!    `free_pages_prepare` zeroes freed pages so FaaSnap can exclude them
//!    from the non-zero set. "Sanitizing pages imposes overhead for the
//!    guest kernel (around 10% of execution time). Since sanitizing freed
//!    pages is only necessary during the record phase, we disable page
//!    sanitizing in the test phase" (§5) — the daemon toggles it through a
//!    procfs interface.

use sim_core::time::SimDuration;
use sim_mm::addr::PageRange;

use crate::overlay::CowMemory;

/// Guest-kernel model for one VM.
#[derive(Clone, Debug)]
pub struct GuestKernel {
    sanitize_freed: bool,
    /// Guest-side cost of zeroing one freed 4 KiB page.
    sanitize_cost_per_page: SimDuration,
    pages_freed: u64,
    pages_sanitized: u64,
}

impl Default for GuestKernel {
    fn default() -> Self {
        // ~4 KiB memset at ~10 GB/s plus bookkeeping.
        GuestKernel {
            sanitize_freed: false,
            sanitize_cost_per_page: SimDuration::from_nanos(450),
            pages_freed: 0,
            pages_sanitized: 0,
        }
    }
}

impl GuestKernel {
    /// Creates a kernel with sanitization disabled (test phase default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables freed-page sanitization (the daemon's procfs
    /// toggle; enabled during the record phase only).
    pub fn set_sanitize_freed(&mut self, on: bool) {
        self.sanitize_freed = on;
    }

    /// Handles a guest `free` of `range`: returns the guest-side cost.
    /// With sanitization on, the pages become zero pages in guest memory.
    /// With it off, stale contents remain (and would be captured by a
    /// snapshot, inflating the non-zero set — exactly the behavior FaaSnap
    /// fixes).
    pub fn free_pages(&mut self, mem: &mut CowMemory, range: PageRange) -> SimDuration {
        self.pages_freed += range.len();
        if self.sanitize_freed {
            mem.zero_range(range);
            self.pages_sanitized += range.len();
            self.sanitize_cost_per_page * range.len()
        } else {
            SimDuration::ZERO
        }
    }

    /// Total pages freed by the guest so far.
    pub fn pages_freed(&self) -> u64 {
        self.pages_freed
    }

    /// Total pages sanitized so far.
    pub fn pages_sanitized(&self) -> u64 {
        self.pages_sanitized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest_memory::GuestMemory;
    use std::rc::Rc;

    /// A restored VM's memory over a base with pages 10..20 non-zero.
    fn restored(total_pages: u64) -> CowMemory {
        let mut m = GuestMemory::new(total_pages);
        for p in 10..20 {
            m.write(p, 1);
        }
        CowMemory::new(Rc::new(m))
    }

    fn nonzero(m: &CowMemory) -> u64 {
        m.materialize().nonzero_count()
    }

    #[test]
    fn sanitize_zeroes_and_costs() {
        let mut k = GuestKernel::new();
        k.set_sanitize_freed(true);
        let mut m = restored(100);
        let cost = k.free_pages(&mut m, PageRange::new(10, 20));
        assert!(!cost.is_zero());
        assert_eq!(nonzero(&m), 0);
        assert_eq!(k.pages_freed(), 10);
        assert_eq!(k.pages_sanitized(), 10);
    }

    #[test]
    fn no_sanitize_leaves_stale_contents() {
        let mut k = GuestKernel::new();
        let mut m = restored(100);
        let cost = k.free_pages(&mut m, PageRange::new(10, 20));
        assert!(cost.is_zero());
        assert_eq!(nonzero(&m), 10, "stale data remains");
        assert_eq!(k.pages_freed(), 10);
        assert_eq!(k.pages_sanitized(), 0);
    }

    #[test]
    fn sanitize_cost_scales_with_pages() {
        let mut k = GuestKernel::new();
        k.set_sanitize_freed(true);
        let mut m = restored(10_000);
        let small = k.free_pages(&mut m, PageRange::new(0, 10));
        let large = k.free_pages(&mut m, PageRange::new(100, 1100));
        assert_eq!(large.as_nanos(), small.as_nanos() * 100);
    }
}
