//! Merged scans over the mutable head and any overlapping segments.
//!
//! A series' points live in up to `1 + #segments` sorted sources. A
//! scan k-way-merges them in timestamp order; when several sources hold
//! the *same* timestamp, the highest-priority one wins — the head
//! (freshest) outranks every segment, and a later-sealed segment
//! outranks an earlier one. All sources at the winning timestamp are
//! advanced, so each logical point is emitted exactly once.

use std::collections::btree_map;

use crate::tskv::gorilla::BlockIter;
use crate::tskv::segment::Segment;

/// Priority of the mutable head: above every possible seal sequence.
const HEAD_PRIORITY: u64 = u64::MAX;

enum SourceIter<'a> {
    Head(btree_map::Range<'a, i64, f64>),
    Block(BlockIter<'a>),
}

impl SourceIter<'_> {
    #[inline]
    fn next(&mut self) -> Option<(i64, f64)> {
        match self {
            SourceIter::Head(r) => r.next().map(|(&t, &v)| (t, v)),
            SourceIter::Block(b) => b.next(),
        }
    }
}

struct Source<'a> {
    priority: u64,
    iter: SourceIter<'a>,
    peek: Option<(i64, f64)>,
}

impl Source<'_> {
    /// Advances past the current peek, enforcing the scan's upper bound.
    #[inline]
    fn advance(&mut self, to: Option<i64>) {
        self.peek = self.iter.next();
        if let (Some((t, _)), Some(to)) = (self.peek, to) {
            if t >= to {
                self.peek = None;
            }
        }
    }
}

/// A merged iterator over `[from, to)` (`to = None` means unbounded,
/// including `i64::MAX`).
///
/// Compacted segments are disjoint in time (one per partition), so the
/// scan keeps not-yet-reached sources in `pending`, ordered by first
/// timestamp, and only merges the `active` few whose ranges actually
/// interleave — the common case streams a single segment straight
/// through with one bound check per point instead of a k-way merge.
pub(crate) struct MergeScan<'a> {
    /// Sources whose first timestamp lies ahead of the merge frontier,
    /// sorted by that timestamp **descending** (pop = next to start).
    pending: Vec<Source<'a>>,
    active: Vec<Source<'a>>,
    to: Option<i64>,
}

impl<'a> MergeScan<'a> {
    /// A merged scan over one series' head and segments.
    pub(crate) fn new(
        head: &'a std::collections::BTreeMap<i64, f64>,
        segments: &'a [Segment],
        from: i64,
        to: Option<i64>,
    ) -> Self {
        let mut sources = Vec::new();
        let overlapping = segments
            .iter()
            .filter(|s| to.is_none_or(|to| s.overlaps(from, to)) && s.max_t >= from);
        for seg in overlapping {
            let mut iter = SourceIter::Block(seg.iter());
            // Blocks decode sequentially; skip the prefix before `from`.
            let mut peek = iter.next();
            while let Some((t, _)) = peek {
                if t >= from {
                    break;
                }
                peek = iter.next();
            }
            sources.push(Source {
                priority: seg.seq,
                iter,
                peek,
            });
        }
        if !head.is_empty() {
            let mut iter = SourceIter::Head(head.range(from..));
            let peek = iter.next();
            sources.push(Source {
                priority: HEAD_PRIORITY,
                iter,
                peek,
            });
        }
        // Apply the upper bound to the initial peeks.
        if let Some(to) = to {
            for s in &mut sources {
                if matches!(s.peek, Some((t, _)) if t >= to) {
                    s.peek = None;
                }
            }
        }
        sources.retain(|s| s.peek.is_some());
        sources.sort_by_key(|s| std::cmp::Reverse(s.peek.expect("retained").0));
        MergeScan {
            pending: sources,
            active: Vec::new(),
            to,
        }
    }

    /// The first timestamp of the next source to start, if any.
    #[inline]
    fn next_start(&self) -> Option<i64> {
        self.pending.last().map(|p| p.peek.expect("pending peek").0)
    }

    /// Streams every remaining point through `f` in order.
    ///
    /// Equivalent to `for p in scan { f(p) }` but while a single source
    /// covers the frontier it drains that source's decoder in a
    /// monomorphic tight loop — segment scans run at decode speed
    /// instead of paying the merge bookkeeping per point.
    pub(crate) fn for_each(mut self, mut f: impl FnMut(i64, f64)) {
        loop {
            if self.active.is_empty() {
                if self.pending.is_empty() {
                    return;
                }
                let src = self.pending.pop().expect("non-empty");
                self.active.push(src);
            }
            if self.active.len() == 1 {
                // Stream this source until it exhausts, crosses the
                // scan's upper bound, or reaches the start of the next
                // pending source (which then has to be merged in).
                let ns = self.next_start();
                let to = self.to;
                let src = &mut self.active[0];
                let mut cur = src.peek;
                match &mut src.iter {
                    SourceIter::Block(b) => {
                        while let Some((t, v)) = cur {
                            if matches!(ns, Some(ns) if t >= ns) {
                                break;
                            }
                            if matches!(to, Some(to) if t >= to) {
                                cur = None;
                                break;
                            }
                            f(t, v);
                            cur = b.next();
                        }
                    }
                    SourceIter::Head(r) => {
                        while let Some((t, v)) = cur {
                            if matches!(ns, Some(ns) if t >= ns) {
                                break;
                            }
                            if matches!(to, Some(to) if t >= to) {
                                cur = None;
                                break;
                            }
                            f(t, v);
                            cur = r.next().map(|(&t, &v)| (t, v));
                        }
                    }
                }
                // A stop at the next source's start may still sit past
                // the upper bound; the peek invariant is "in range".
                src.peek = match cur {
                    Some((t, _)) if to.is_some_and(|to| t >= to) => None,
                    other => other,
                };
                if src.peek.is_none() {
                    self.active.clear();
                    continue;
                }
            }
            match self.next() {
                Some((t, v)) => f(t, v),
                None => return,
            }
        }
    }
}

impl Iterator for MergeScan<'_> {
    type Item = (i64, f64);

    #[inline]
    fn next(&mut self) -> Option<(i64, f64)> {
        // Fast path: one active source and the next pending one starts
        // later — stream straight through.
        if self.active.len() == 1 {
            let next_start = self.next_start();
            let src = &mut self.active[0];
            if let Some((t, v)) = src.peek {
                if next_start.is_none_or(|ns| t < ns) {
                    src.advance(self.to);
                    if src.peek.is_none() {
                        self.active.clear();
                    }
                    return Some((t, v));
                }
            }
        }
        // Activate every pending source that could hold the next point.
        let mut min_t = self
            .active
            .iter()
            .filter_map(|s| s.peek)
            .map(|(t, _)| t)
            .min();
        while let Some(ns) = self.next_start() {
            if min_t.is_none_or(|m| ns <= m) {
                min_t = Some(min_t.map_or(ns, |m: i64| m.min(ns)));
                let src = self.pending.pop().expect("next_start saw it");
                self.active.push(src);
            } else {
                break;
            }
        }
        let t = min_t?;
        // Highest-priority value at the winning timestamp.
        let mut best: Option<(f64, u64)> = None;
        for s in &self.active {
            if let Some((pt, pv)) = s.peek {
                if pt == t && best.is_none_or(|(_, bp)| s.priority > bp) {
                    best = Some((pv, s.priority));
                }
            }
        }
        let (v, _) = best.expect("some active source peeks at min_t");
        // Advance every source sitting at `t` so the point is emitted
        // exactly once; drop the exhausted ones.
        let to = self.to;
        let mut exhausted = false;
        for s in &mut self.active {
            if matches!(s.peek, Some((pt, _)) if pt == t) {
                s.advance(to);
                exhausted |= s.peek.is_none();
            }
        }
        if exhausted {
            self.active.retain(|s| s.peek.is_some());
        }
        Some((t, v))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn merges_dedups_and_prioritizes() {
        // Segment seq 1: t 0,10,20 ; segment seq 2 overwrites t 10;
        // head overwrites t 20 and adds t 30.
        let s1 = Segment::seal(&[(0, 1.0), (10, 1.0), (20, 1.0)], 1);
        let s2 = Segment::seal(&[(10, 2.0)], 2);
        let mut head = BTreeMap::new();
        head.insert(20, 3.0);
        head.insert(30, 3.0);
        let segs = vec![s1, s2];
        let got: Vec<(i64, f64)> = MergeScan::new(&head, &segs, 0, None).collect();
        assert_eq!(got, vec![(0, 1.0), (10, 2.0), (20, 3.0), (30, 3.0)]);
        // Bounds are half-open and skip the encoded prefix.
        let got: Vec<(i64, f64)> = MergeScan::new(&head, &segs, 10, Some(30)).collect();
        assert_eq!(got, vec![(10, 2.0), (20, 3.0)]);
    }

    #[test]
    fn unbounded_scan_reaches_i64_max() {
        let mut head = BTreeMap::new();
        head.insert(i64::MAX, 9.0);
        let got: Vec<(i64, f64)> = MergeScan::new(&head, &[], i64::MIN, None).collect();
        assert_eq!(got, vec![(i64::MAX, 9.0)]);
    }
}
