//! The vCPU: a passive, resumable interpreter of a [`Trace`].
//!
//! The DES runtime drives the vCPU step by step: [`Vcpu::next_step`]
//! yields the next observable action (compute for some duration, access a
//! page, free pages, or done). Page accesses that hit already-mapped pages
//! cost nothing at the host level, so the runtime consumes them inline;
//! faulting accesses suspend the vCPU until the fault plan completes.
//!
//! This structure is what lets the reproduction model FaaSnap's
//! *concurrent paging* faithfully: guest progress and loader prefetch
//! interleave on the simulated clock, and whether a given access is a
//! major fault, a minor fault, or no fault depends on the race between
//! the two (§4.2).

use std::rc::Rc;

use sim_core::time::SimDuration;
use sim_mm::addr::{PageNum, PageRange};

use crate::trace::{Trace, TraceOp};

/// The next observable vCPU action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// Run for this duration (through the CPU model).
    Compute(SimDuration),
    /// Access `page`; if `write`, install `token` into guest memory once
    /// the access completes.
    Access {
        /// Guest physical page.
        page: PageNum,
        /// True for writes.
        write: bool,
        /// Content token to write (0 preserves/zeroes per trace semantics;
        /// ignored for reads).
        token: u64,
    },
    /// The guest frees these pages (kernel-side effect, no host fault).
    Free {
        /// Freed pages.
        range: PageRange,
    },
    /// Trace exhausted; the function's reply has been sent.
    Done,
}

/// Interpreter state over one trace.
#[derive(Clone, Debug)]
pub struct Vcpu {
    /// The trace, shared with every vCPU running the same one (fork
    /// siblings interpret one trace each from its own position).
    trace: Rc<Trace>,
    /// Index of the current op.
    op_idx: usize,
    /// Position within the current op (pages consumed for touches).
    intra: u64,
    /// True when the next yield for the current touch position should be
    /// the per-page compute (compute is charged *before* each access).
    pending_access: Option<(PageNum, bool, u64)>,
    accesses: u64,
}

impl Vcpu {
    /// Creates a vCPU positioned at the start of `trace`.
    pub fn new(trace: impl Into<Rc<Trace>>) -> Self {
        Vcpu {
            trace: trace.into(),
            op_idx: 0,
            intra: 0,
            pending_access: None,
            accesses: 0,
        }
    }

    /// Total page accesses performed so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// True once the trace is exhausted.
    pub fn is_done(&self) -> bool {
        self.op_idx >= self.trace.ops.len() && self.pending_access.is_none()
    }

    /// Yields the next step. The caller must fully handle each step before
    /// calling again (the vCPU assumes the access/compute completed).
    pub fn next_step(&mut self) -> Step {
        if let Some((page, write, token)) = self.pending_access.take() {
            self.accesses += 1;
            return Step::Access { page, write, token };
        }

        loop {
            let Some(op) = self.trace.ops.get(self.op_idx) else {
                return Step::Done;
            };
            match op {
                TraceOp::Compute(d) => {
                    let d = *d;
                    self.op_idx += 1;
                    if d.is_zero() {
                        continue;
                    }
                    return Step::Compute(d);
                }
                TraceOp::Free { range } => {
                    let range = *range;
                    self.op_idx += 1;
                    return Step::Free { range };
                }
                TraceOp::Touch {
                    range,
                    stride,
                    write,
                    per_page_compute,
                    token_seed,
                } => {
                    let page = range.start + self.intra * stride;
                    if page >= range.end {
                        self.op_idx += 1;
                        self.intra = 0;
                        continue;
                    }
                    let token = if *write {
                        Trace::token_for(*token_seed, page)
                    } else {
                        0
                    };
                    self.intra += 1;
                    if per_page_compute.is_zero() {
                        self.accesses += 1;
                        return Step::Access {
                            page,
                            write: *write,
                            token,
                        };
                    }
                    self.pending_access = Some((page, *write, token));
                    return Step::Compute(*per_page_compute);
                }
                TraceOp::TouchList {
                    pages,
                    write,
                    per_page_compute,
                    token_seed,
                } => {
                    let Some(&page) = pages.get(self.intra as usize) else {
                        self.op_idx += 1;
                        self.intra = 0;
                        continue;
                    };
                    let token = if *write {
                        Trace::token_for(*token_seed, page)
                    } else {
                        0
                    };
                    self.intra += 1;
                    if per_page_compute.is_zero() {
                        self.accesses += 1;
                        return Step::Access {
                            page,
                            write: *write,
                            token,
                        };
                    }
                    self.pending_access = Some((page, *write, token));
                    return Step::Compute(*per_page_compute);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    fn drain(mut v: Vcpu) -> Vec<Step> {
        let mut steps = Vec::new();
        loop {
            let s = v.next_step();
            let done = s == Step::Done;
            steps.push(s);
            if done {
                break;
            }
        }
        steps
    }

    #[test]
    fn empty_trace_is_done() {
        let mut v = Vcpu::new(Trace::new());
        assert_eq!(v.next_step(), Step::Done);
        assert!(v.is_done());
    }

    #[test]
    fn compute_then_done() {
        let mut t = Trace::new();
        t.push(TraceOp::Compute(us(5)));
        let steps = drain(Vcpu::new(t));
        assert_eq!(steps, vec![Step::Compute(us(5)), Step::Done]);
    }

    #[test]
    fn zero_compute_skipped() {
        let mut t = Trace::new();
        t.push(TraceOp::Compute(SimDuration::ZERO));
        t.push(TraceOp::Compute(us(1)));
        let steps = drain(Vcpu::new(t));
        assert_eq!(steps, vec![Step::Compute(us(1)), Step::Done]);
    }

    #[test]
    fn touch_yields_accesses_in_order() {
        let mut t = Trace::new();
        t.push(TraceOp::Touch {
            range: PageRange::new(10, 13),
            stride: 1,
            write: false,
            per_page_compute: SimDuration::ZERO,
            token_seed: 0,
        });
        let steps = drain(Vcpu::new(t));
        let pages: Vec<u64> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Access { page, .. } => Some(*page),
                _ => None,
            })
            .collect();
        assert_eq!(pages, vec![10, 11, 12]);
    }

    #[test]
    fn strided_touch() {
        let mut t = Trace::new();
        t.push(TraceOp::Touch {
            range: PageRange::new(0, 10),
            stride: 4,
            write: false,
            per_page_compute: SimDuration::ZERO,
            token_seed: 0,
        });
        let steps = drain(Vcpu::new(t));
        let pages: Vec<u64> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Access { page, .. } => Some(*page),
                _ => None,
            })
            .collect();
        assert_eq!(pages, vec![0, 4, 8]);
    }

    #[test]
    fn per_page_compute_precedes_each_access() {
        let mut t = Trace::new();
        t.push(TraceOp::Touch {
            range: PageRange::new(0, 2),
            stride: 1,
            write: true,
            per_page_compute: us(3),
            token_seed: 9,
        });
        let steps = drain(Vcpu::new(t));
        assert_eq!(steps.len(), 5); // C A C A Done
        assert_eq!(steps[0], Step::Compute(us(3)));
        assert!(matches!(
            steps[1],
            Step::Access {
                page: 0,
                write: true,
                ..
            }
        ));
        assert_eq!(steps[2], Step::Compute(us(3)));
        assert!(matches!(steps[3], Step::Access { page: 1, .. }));
    }

    #[test]
    fn write_tokens_match_trace_function() {
        let mut t = Trace::new();
        t.push(TraceOp::Touch {
            range: PageRange::new(7, 8),
            stride: 1,
            write: true,
            per_page_compute: SimDuration::ZERO,
            token_seed: 42,
        });
        let steps = drain(Vcpu::new(t));
        match &steps[0] {
            Step::Access {
                page: 7,
                write: true,
                token,
            } => {
                assert_eq!(*token, Trace::token_for(42, 7));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn touch_list_and_free() {
        let mut t = Trace::new();
        t.push(TraceOp::TouchList {
            pages: vec![5, 3, 9],
            write: false,
            per_page_compute: SimDuration::ZERO,
            token_seed: 0,
        });
        t.push(TraceOp::Free {
            range: PageRange::new(3, 6),
        });
        let steps = drain(Vcpu::new(t));
        let pages: Vec<u64> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Access { page, .. } => Some(*page),
                _ => None,
            })
            .collect();
        assert_eq!(pages, vec![5, 3, 9]);
        assert!(steps.contains(&Step::Free {
            range: PageRange::new(3, 6)
        }));
    }

    #[test]
    fn access_counter() {
        let mut t = Trace::new();
        t.push(TraceOp::Touch {
            range: PageRange::new(0, 5),
            stride: 1,
            write: false,
            per_page_compute: us(1),
            token_seed: 0,
        });
        let mut v = Vcpu::new(t);
        while v.next_step() != Step::Done {}
        assert_eq!(v.accesses(), 5);
    }
}
