//! The flight recorder: reconstructs the end-to-end path of each traced
//! measurement from the trace ring buffer.
//!
//! Every hop of a traced measurement records a [`TraceEvent`] carrying
//! the same [`TraceId`] (device sample → proxy ingest → broker publish →
//! broker deliver → subscriber receive). [`reconstruct`] groups events
//! by trace id and computes per-hop latencies, giving a breakdown like:
//!
//! ```text
//! trace 42 (total 23.1 ms)
//!   +0.0 ms  device.sample    dev-z0          seq=18
//!   +8.2 ms  proxy.ingest     devproxy-0      points=1
//!   +8.3 ms  broker.publish   broker          topic=district/poli/...
//!   +8.3 ms  broker.deliver   broker          to=sub-1
//!   +23.1 ms sub.receive      sub-1           bytes=113
//! ```

use crate::trace::{SpanId, TraceEvent, TraceId, NO_SPAN, NO_TRACE};
use std::collections::BTreeMap;
use std::fmt;

/// One hop of a reconstructed flight.
#[derive(Debug, Clone, PartialEq)]
pub struct Hop {
    pub kind: String,
    pub node: u32,
    pub node_name: String,
    pub time_ns: u64,
    /// Latency since the previous hop (0 for the first).
    pub latency_ns: u64,
    /// Causal span of this hop; [`NO_SPAN`] for unstructured events.
    pub span: SpanId,
    /// The span that caused this hop; [`NO_SPAN`] for a root.
    pub parent_span: SpanId,
    pub detail: String,
}

/// The full path of one traced measurement, hops in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightPath {
    pub trace_id: TraceId,
    pub hops: Vec<Hop>,
    /// Time from the first to the last hop.
    pub total_ns: u64,
}

impl FlightPath {
    /// `true` if the path visits every one of the given event kinds, in
    /// order (other hops may be interleaved).
    pub fn visits(&self, kinds: &[&str]) -> bool {
        let mut want = kinds.iter();
        let mut next = want.next();
        for hop in &self.hops {
            if let Some(k) = next {
                if hop.kind == *k {
                    next = want.next();
                }
            }
        }
        next.is_none()
    }
}

impl fmt::Display for FlightPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace {} ({} hops, total {:.3} ms)",
            self.trace_id,
            self.hops.len(),
            self.total_ns as f64 / 1e6
        )?;
        let t0 = self.hops.first().map(|h| h.time_ns).unwrap_or(0);
        for hop in &self.hops {
            let name = if hop.node_name.is_empty() {
                format!("node{}", hop.node)
            } else {
                hop.node_name.clone()
            };
            writeln!(
                f,
                "  +{:>9.3} ms  {:<16} {:<18} {}",
                (hop.time_ns - t0) as f64 / 1e6,
                hop.kind,
                name,
                hop.detail
            )?;
        }
        Ok(())
    }
}

/// Groups events by trace id and computes per-hop latencies.
///
/// Events with [`NO_TRACE`] are ignored. Within a trace, events keep
/// their ring-buffer order (the recorder appends in simulation order,
/// so equal timestamps preserve causal order). Paths are returned in
/// ascending trace-id order.
pub fn reconstruct(events: &[TraceEvent]) -> Vec<FlightPath> {
    let mut by_trace: BTreeMap<TraceId, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.trace_id != NO_TRACE {
            by_trace.entry(e.trace_id).or_default().push(e);
        }
    }
    by_trace
        .into_iter()
        .map(|(trace_id, evs)| {
            let mut hops = Vec::with_capacity(evs.len());
            let mut prev: Option<u64> = None;
            for e in &evs {
                hops.push(Hop {
                    kind: e.kind.clone(),
                    node: e.node,
                    node_name: e.node_name.clone(),
                    time_ns: e.time_ns,
                    latency_ns: prev.map(|p| e.time_ns.saturating_sub(p)).unwrap_or(0),
                    span: e.span,
                    parent_span: e.parent_span,
                    detail: e.detail.clone(),
                });
                prev = Some(e.time_ns);
            }
            let total_ns = match (evs.first(), evs.last()) {
                (Some(a), Some(b)) => b.time_ns.saturating_sub(a.time_ns),
                _ => 0,
            };
            FlightPath {
                trace_id,
                hops,
                total_ns,
            }
        })
        .collect()
}

/// One node of a causal span tree: a hop plus the hops it caused.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    pub hop: Hop,
    /// Child spans, in ring (i.e. simulation) order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Depth-first walk over this subtree (self first).
    fn walk<'a>(&'a self, out: &mut Vec<&'a SpanNode>) {
        out.push(self);
        for c in &self.children {
            c.walk(out);
        }
    }
}

/// The causal structure of one trace: a forest of [`SpanNode`]s.
///
/// Unlike [`FlightPath`] — a flat time-ordered list — a span tree keeps
/// *who caused what*: a publish fanning out to three subscribers is one
/// publish span with three deliver children, and a cross-shard publish
/// shows the bridge hop as an interior node between the two brokers'
/// spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    pub trace_id: TraceId,
    /// Root spans (parent unknown or [`NO_SPAN`]), in ring order.
    pub roots: Vec<SpanNode>,
    /// Time from the earliest to the latest span in the tree.
    pub total_ns: u64,
}

impl SpanTree {
    /// All nodes of the tree, depth-first from each root.
    pub fn nodes(&self) -> Vec<&SpanNode> {
        let mut out = Vec::new();
        for r in &self.roots {
            r.walk(&mut out);
        }
        out
    }
}

impl fmt::Display for SpanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace {} (spans {}, total {:.3} ms)",
            self.trace_id,
            self.nodes().len(),
            self.total_ns as f64 / 1e6
        )?;
        fn node(f: &mut fmt::Formatter<'_>, n: &SpanNode, t0: u64, depth: usize) -> fmt::Result {
            let name = if n.hop.node_name.is_empty() {
                format!("node{}", n.hop.node)
            } else {
                n.hop.node_name.clone()
            };
            writeln!(
                f,
                "  +{:>9.3} ms  {:indent$}{:<16} {:<18} {}",
                (n.hop.time_ns - t0) as f64 / 1e6,
                "",
                n.hop.kind,
                name,
                n.hop.detail,
                indent = depth * 2,
            )?;
            for c in &n.children {
                node(f, c, t0, depth + 1)?;
            }
            Ok(())
        }
        let t0 = self
            .nodes()
            .iter()
            .map(|n| n.hop.time_ns)
            .min()
            .unwrap_or(0);
        for r in &self.roots {
            node(f, r, t0, 0)?;
        }
        Ok(())
    }
}

/// Groups span-carrying events by trace id and rebuilds each trace's
/// causal tree from the parent-span links.
///
/// Events with [`NO_TRACE`] or [`NO_SPAN`] are excluded — only hops
/// that declared a causal position participate. A span whose parent is
/// missing from the ring (evicted, or never recorded) becomes a root,
/// so a truncated ring still yields a usable forest. Trees are
/// returned in ascending trace-id order; siblings keep ring order.
pub(crate) fn reconstruct_trees(events: &[TraceEvent]) -> Vec<SpanTree> {
    let mut by_trace: BTreeMap<TraceId, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.trace_id != NO_TRACE && e.span != NO_SPAN {
            by_trace.entry(e.trace_id).or_default().push(e);
        }
    }
    by_trace
        .into_iter()
        .map(|(trace_id, evs)| {
            let present: std::collections::BTreeSet<SpanId> = evs.iter().map(|e| e.span).collect();
            // parent span id → child events, ring order preserved.
            let mut children: BTreeMap<SpanId, Vec<&TraceEvent>> = BTreeMap::new();
            let mut roots: Vec<&TraceEvent> = Vec::new();
            for e in &evs {
                if e.parent_span != NO_SPAN && present.contains(&e.parent_span) {
                    children.entry(e.parent_span).or_default().push(e);
                } else {
                    roots.push(e);
                }
            }
            fn build(
                e: &TraceEvent,
                parent_time: Option<u64>,
                children: &BTreeMap<SpanId, Vec<&TraceEvent>>,
            ) -> SpanNode {
                SpanNode {
                    hop: Hop {
                        kind: e.kind.clone(),
                        node: e.node,
                        node_name: e.node_name.clone(),
                        time_ns: e.time_ns,
                        latency_ns: parent_time
                            .map(|p| e.time_ns.saturating_sub(p))
                            .unwrap_or(0),
                        span: e.span,
                        parent_span: e.parent_span,
                        detail: e.detail.clone(),
                    },
                    children: children
                        .get(&e.span)
                        .map(|cs| {
                            cs.iter()
                                .map(|c| build(c, Some(e.time_ns), children))
                                .collect()
                        })
                        .unwrap_or_default(),
                }
            }
            let roots: Vec<SpanNode> = roots.iter().map(|e| build(e, None, &children)).collect();
            let (lo, hi) = evs.iter().fold((u64::MAX, 0), |(lo, hi), e| {
                (lo.min(e.time_ns), hi.max(e.time_ns))
            });
            SpanTree {
                trace_id,
                roots,
                total_ns: hi.saturating_sub(lo.min(hi)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    fn ev(t: u64, node: u32, kind: &str, id: TraceId) -> TraceEvent {
        TraceEvent {
            time_ns: t,
            node,
            node_name: format!("n{node}"),
            kind: kind.to_string(),
            trace_id: id,
            span: NO_SPAN,
            parent_span: NO_SPAN,
            detail: String::new(),
        }
    }

    fn sev(t: u64, kind: &str, id: TraceId, span: SpanId, parent: SpanId) -> TraceEvent {
        TraceEvent {
            span,
            parent_span: parent,
            ..ev(t, 1, kind, id)
        }
    }

    #[test]
    fn reconstructs_per_hop_latencies() {
        let events = vec![
            ev(0, 1, "device.sample", 9),
            ev(5_000_000, 2, "proxy.ingest", 9),
            ev(7_000_000, 3, "broker.publish", 9),
            ev(12_000_000, 4, "sub.receive", 9),
            ev(1, 1, "noise", NO_TRACE),
        ];
        let paths = reconstruct(&events);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.trace_id, 9);
        assert_eq!(p.total_ns, 12_000_000);
        let lat: Vec<u64> = p.hops.iter().map(|h| h.latency_ns).collect();
        assert_eq!(lat, vec![0, 5_000_000, 2_000_000, 5_000_000]);
        assert!(p.visits(&["device.sample", "broker.publish", "sub.receive"]));
        assert!(!p.visits(&["sub.receive", "device.sample"]));
    }

    #[test]
    fn separates_traces() {
        let events = vec![ev(0, 1, "a", 1), ev(1, 1, "a", 2), ev(2, 2, "b", 1)];
        let paths = reconstruct(&events);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].hops.len(), 2);
        assert_eq!(paths[1].hops.len(), 1);
    }

    #[test]
    fn span_trees_rebuild_causal_structure() {
        // publish(1) → deliver(2), deliver(3); deliver(3) → receive(4).
        let events = vec![
            sev(0, "broker.publish", 7, 1, 0),
            sev(10, "broker.deliver", 7, 2, 1),
            sev(20, "broker.deliver", 7, 3, 1),
            sev(30, "sub.receive", 7, 4, 3),
            // A flat (span-less) event must not enter the tree.
            ev(5, 1, "net.deliver", 7),
        ];
        let trees = reconstruct_trees(&events);
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.roots.len(), 1);
        assert_eq!(t.roots[0].hop.kind, "broker.publish");
        assert_eq!(t.roots[0].children.len(), 2);
        assert_eq!(t.total_ns, 30);
        // The first deliver is a leaf; the second carries the receive,
        // which ends the three-span chain.
        let [first, second] = &t.roots[0].children[..] else {
            panic!("two delivers");
        };
        assert!(first.children.is_empty());
        assert_eq!(second.children.len(), 1);
        assert_eq!(second.children[0].hop.kind, "sub.receive");
        assert!(second.children[0].children.is_empty());
        let receive = t
            .nodes()
            .into_iter()
            .find(|n| n.hop.kind == "sub.receive")
            .unwrap();
        assert_eq!(receive.hop.parent_span, 3);
        assert_eq!(receive.hop.latency_ns, 10, "latency vs causal parent");
    }

    #[test]
    fn orphan_spans_become_roots() {
        // Parent span 9 was evicted from the ring: its child still shows.
        let events = vec![sev(0, "a", 1, 3, 9), sev(5, "b", 1, 4, 3)];
        let trees = reconstruct_trees(&events);
        assert_eq!(trees[0].roots.len(), 1);
        assert_eq!(trees[0].roots[0].hop.kind, "a");
        assert_eq!(trees[0].roots[0].children[0].hop.kind, "b");
        // Display renders without panicking and shows the indent.
        let text = trees[0].to_string();
        assert!(text.contains("a"));
    }

    #[test]
    fn works_from_tracer_events() {
        let t = Tracer::new();
        let id = t.next_trace_id();
        t.register_node(1, "dev");
        t.record(10, 1, "device.sample", id, format_args!(""));
        t.record(20, 2, "proxy.ingest", id, format_args!(""));
        let paths = reconstruct(&t.events());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops[0].node_name, "dev");
        assert_eq!(paths[0].hops[1].latency_ns, 10);
    }
}
