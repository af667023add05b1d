//! Coarse spans kept in memory and written out when the run ends.
//!
//! One span per phase (`setup.deploy`, `slice.3`, `replay.wire`, ...):
//! name, start, end and the span that was open when it began. Callback
//! timing is far too dense for this (see [`crate::timed`]); it reaches
//! the trace file as per-class, per-slice aggregate rows instead.

use std::time::Instant;

use crate::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    /// Extra JSON-lines rows (callback aggregates) for the trace file.
    pub rows: Vec<Json>,
}

/// Handle of an open span; pass it back to [`Spans::end`].
#[must_use]
pub struct Open(usize);

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
            rows: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: impl Into<String>) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes the span and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        let span = &mut self.spans[open.0];
        span.end_s = now;
        self.open.retain(|&id| id != open.0);
        now - span.start_s
    }

    /// Runs `f` inside a span; returns its result and the duration.
    pub fn scope<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// The trace file: one JSON object per line, spans then rows.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let row = Json::obj([
                ("span", Json::from(id as u64)),
                ("name", Json::from(s.name.as_str())),
                ("start_s", Json::Num(s.start_s)),
                ("end_s", Json::Num(s.end_s)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
            ]);
            out.push_str(&row.render());
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render_one_object_per_line() {
        let mut spans = Spans::new();
        let outer = spans.begin("setup");
        let (v, inner_s) = spans.scope("setup.deploy", || 7);
        let outer_s = spans.end(outer);
        assert_eq!(v, 7);
        assert!(outer_s >= inner_s);
        assert_eq!(spans.spans[1].parent, Some(0));
        assert_eq!(spans.spans[0].parent, None);
        let deploy = &spans.spans[1];
        assert_eq!(deploy.end_s - deploy.start_s, inner_s);
        spans
            .rows
            .push(Json::obj([("class", Json::from("broker"))]));
        let text = spans.to_json_lines();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            Json::parse(line).expect("each line is JSON");
        }
    }
}
